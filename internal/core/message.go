package core

import (
	"fmt"
	"sort"
)

// Message is a single point-to-point message (i, j): processor Src has a
// message to be sent to processor Dst. Message *contents* are abstracted away,
// exactly as in the paper: routing depends only on the endpoints.
type Message struct {
	Src, Dst int
}

// String renders the message as "3->17".
func (m Message) String() string { return fmt.Sprintf("%d->%d", m.Src, m.Dst) }

// MessageSet is a multiset M ⊆ P × P of messages. The paper defines M as a
// set, but the scheduling and simulation machinery is indifferent to
// duplicates, and workloads such as all-to-all naturally produce multisets,
// so we permit them.
type MessageSet []Message

// Validate checks that every message endpoint names a processor of t (or the
// External pseudo-processor on one side) and that no message is a self-loop
// (a message from a processor to itself never enters the routing network).
// It returns the first violation found.
func (ms MessageSet) Validate(t *FatTree) error {
	n := t.Processors()
	for i, m := range ms {
		if m.IsExternal() {
			if !externalValidate(t, m) {
				return fmt.Errorf("core: message %d (%v): invalid external message", i, m)
			}
			continue
		}
		if m.Src < 0 || m.Src >= n {
			return fmt.Errorf("core: message %d (%v): source out of range [0,%d)", i, m, n)
		}
		if m.Dst < 0 || m.Dst >= n {
			return fmt.Errorf("core: message %d (%v): destination out of range [0,%d)", i, m, n)
		}
		if m.Src == m.Dst {
			return fmt.Errorf("core: message %d (%v): self-loop", i, m)
		}
	}
	return nil
}

// Clone returns a copy of the message set.
func (ms MessageSet) Clone() MessageSet {
	out := make(MessageSet, len(ms))
	copy(out, ms)
	return out
}

// Sorted returns a copy ordered by (Src, Dst); useful for deterministic
// comparison in tests.
func (ms MessageSet) Sorted() MessageSet {
	out := ms.Clone()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// Equal reports whether two message sets are equal as multisets.
func (ms MessageSet) Equal(other MessageSet) bool {
	if len(ms) != len(other) {
		return false
	}
	a, b := ms.Sorted(), other.Sorted()
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Concat returns the concatenation of message sets (multiset union).
func Concat(sets ...MessageSet) MessageSet {
	total := 0
	for _, s := range sets {
		total += len(s)
	}
	out := make(MessageSet, 0, total)
	for _, s := range sets {
		out = append(out, s...)
	}
	return out
}
