package model

import "fmt"

// SiteID identifies a physical site in the distributed system. User sites
// (hosting Request Issuers) and data sites (hosting Queue Managers) share the
// same identifier space, as in the paper's system model (§2).
type SiteID int32

// TxnID uniquely identifies a transaction attempt family. The Site component
// is the user site whose RI issued the transaction; Seq is that RI's local
// counter. Restarted transactions keep their TxnID (so metrics can attribute
// all attempts to one logical transaction) but carry a fresh Attempt number
// in messages.
type TxnID struct {
	Site SiteID
	Seq  uint64
}

func (t TxnID) String() string { return fmt.Sprintf("t%d.%d", t.Site, t.Seq) }

// IsZero reports whether the id is the zero value (no transaction).
func (t TxnID) IsZero() bool { return t.Site == 0 && t.Seq == 0 }

// Compare totally orders transaction ids (used as the final precedence
// tie-break for non-2PL requests, §4.1 step 3).
func (t TxnID) Compare(o TxnID) int {
	switch {
	case t.Site < o.Site:
		return -1
	case t.Site > o.Site:
		return 1
	case t.Seq < o.Seq:
		return -1
	case t.Seq > o.Seq:
		return 1
	default:
		return 0
	}
}

// ItemID names a logical data item (§2's D_i).
type ItemID int32

func (d ItemID) String() string { return fmt.Sprintf("D%d", d) }

// CopyID names one physical copy D_ij of logical item Item stored at Site.
type CopyID struct {
	Item ItemID
	Site SiteID
}

func (c CopyID) String() string { return fmt.Sprintf("D%d@%d", c.Item, c.Site) }

// ShardOfItem maps an item to one of shards queue-manager shards. Every
// component that routes per-item traffic — request issuers addressing shard
// mailboxes, the queue manager partitioning its queue tables, workload
// scenarios constructing shard-local hot sets — must agree on this function,
// which is why it lives in model rather than qm. The multiplicative hash
// spreads the (typically small, sequential) item space evenly so shard load
// is balanced even when items are accessed in ranges.
func ShardOfItem(item ItemID, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := uint64(uint32(item)) * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(shards))
}

// Timestamp is a logical timestamp drawn from each RI's Lamport clock.
// Uniqueness across sites is not required of the raw value: the unified
// precedence order breaks ties by site id and transaction id (§4.1).
type Timestamp int64

// NoTimestamp marks requests (2PL) whose precedence timestamp is assigned at
// the data queue rather than by the issuer.
const NoTimestamp Timestamp = -1

// Protocol enumerates the member concurrency control algorithms of the
// unified scheme.
type Protocol uint8

const (
	// TwoPL is static two-phase locking: FCFS queue precedence plus the
	// locking protocol (§3.3). Subject to distributed deadlocks.
	TwoPL Protocol = iota
	// TO is Basic Timestamp Ordering: transaction-timestamp precedence with
	// rejection (restart) of out-of-order requests (§3.3).
	TO
	// PA is Precedence Agreement: timestamp precedence negotiated via
	// back-off intervals; deadlock- and restart-free (§3.4).
	PA
	// ROSnapshot is the read-only snapshot fast path (beyond the paper): a
	// pure-read transaction reads committed versions at a site-local
	// snapshot timestamp directly from the multi-version store, bypassing
	// the data queues entirely — no locks, no timestamps checks, no
	// restarts. Read-write transactions can never run under ROSnapshot.
	ROSnapshot
)

// Protocols lists the paper's member protocols in presentation order.
// ROSnapshot is deliberately absent: it is a transaction class layered on
// top of the unified scheme, not a member of the precedence space.
var Protocols = []Protocol{TwoPL, TO, PA}

// NumProtocols sizes per-protocol arrays that include the ROSnapshot class.
const NumProtocols = 4

func (p Protocol) String() string {
	switch p {
	case TwoPL:
		return "2PL"
	case TO:
		return "T/O"
	case PA:
		return "PA"
	case ROSnapshot:
		return "RO"
	default:
		return fmt.Sprintf("Protocol(%d)", uint8(p))
	}
}

// OpKind distinguishes read and write operations.
type OpKind uint8

const (
	// OpRead is a (physical) read r(Dij).
	OpRead OpKind = iota
	// OpWrite is a (physical) write w(Dij).
	OpWrite
)

func (k OpKind) String() string {
	if k == OpRead {
		return "r"
	}
	return "w"
}

// Conflicts reports whether two operation kinds conflict: at least one write
// (§2).
func (k OpKind) Conflicts(o OpKind) bool { return k == OpWrite || o == OpWrite }

// LockKind enumerates the four lock types of the semi-lock protocol (§4.2).
type LockKind uint8

const (
	// RL is a read lock held by a 2PL or PA transaction.
	RL LockKind = iota
	// WL is a write lock (held by any protocol's writer).
	WL
	// SRL is a semi-read lock: unlocked as far as T/O is concerned, locked
	// for 2PL and PA.
	SRL
	// SWL is a semi-write lock (a T/O write already implemented, still
	// visible as a lock to 2PL/PA).
	SWL
)

func (k LockKind) String() string {
	switch k {
	case RL:
		return "RL"
	case WL:
		return "WL"
	case SRL:
		return "SRL"
	case SWL:
		return "SWL"
	default:
		return fmt.Sprintf("LockKind(%d)", uint8(k))
	}
}

// IsWrite reports whether the lock kind protects a write (WL or SWL).
func (k LockKind) IsWrite() bool { return k == WL || k == SWL }

// LocksConflict implements §4.2's rule: two locks conflict if they lock the
// same data item and at least one is a WL or SWL. (Callers have already
// established the same-item condition.)
func LocksConflict(a, b LockKind) bool { return a.IsWrite() || b.IsWrite() }
