// Package model is badmod's stand-in for ucc/internal/model's pooled decode
// surface.
package model

// Message is the sealed message interface.
type Message interface{ isMessage() }

// PingMsg is a pooled message type.
type PingMsg struct{}

func (*PingMsg) isMessage() {}

// DecodeMessagePooled is the pool-backed decoder.
func DecodeMessagePooled(tag byte) (Message, error) {
	return &PingMsg{}, nil
}

// RecycleMessage returns a pooled message.
func RecycleMessage(m Message) {}
