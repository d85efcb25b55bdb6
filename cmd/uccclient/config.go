package main

import (
	"fmt"
	"strconv"
	"strings"

	"ucc/internal/transport"
)

// parsePeerList parses -peers: at least one site address, index = site id.
func parsePeerList(csv string) ([]string, error) {
	peers, err := transport.ParsePeerList(csv)
	if err != nil {
		return nil, fmt.Errorf("-peers: %w", err)
	}
	return peers, nil
}

// parseMix parses "a,b,c" or "a,b,c,d" protocol shares (2PL, T/O, PA, and
// optionally the read-only snapshot class). Shares are relative weights; at
// least one must be positive. Parsing is strict — a malformed or extra
// field is an error, never silently dropped.
func parseMix(s string) ([4]float64, error) {
	var shares [4]float64
	fields := strings.Split(s, ",")
	if len(fields) != 3 && len(fields) != 4 {
		return shares, fmt.Errorf("bad -mix %q: want 3 or 4 comma-separated shares", s)
	}
	var total float64
	for i, f := range fields {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return shares, fmt.Errorf("bad -mix %q: share %d: %w", s, i+1, err)
		}
		if v < 0 {
			return shares, fmt.Errorf("bad -mix %q: negative share", s)
		}
		shares[i] = v
		total += v
	}
	if total <= 0 {
		return shares, fmt.Errorf("bad -mix %q: all shares zero", s)
	}
	return shares, nil
}
