package summary

import (
	"fmt"

	"github.com/subsum/subsum/internal/schema"
)

// Validate checks the summary's cross-structure invariants; tests call it
// after mutation sequences. It verifies that every id referenced by an
// AACS or SACS row is registered (with a c3 mask whose bit for that
// attribute is set), and that every registered id appears in at least one
// per-attribute structure.
func (sm *Summary) Validate() error {
	sm.purgeDead()
	// Dense-registry consistency: ids, keys and masks describe the same
	// set of subscriptions.
	if len(sm.keys) != len(sm.ids) || len(sm.masks) != len(sm.keys) {
		return fmt.Errorf("summary: registry slices out of sync (%d ids, %d keys, %d masks)",
			len(sm.ids), len(sm.keys), len(sm.masks))
	}
	for i, key := range sm.keys {
		if j, ok := sm.ids[key]; !ok || int(j) != i {
			return fmt.Errorf("summary: registry index for id %d is stale", key)
		}
	}
	seen := make(map[uint64]bool, len(sm.ids))
	check := func(attr schema.AttrID, ids []uint64) error {
		for _, key := range ids {
			i, ok := sm.ids[key]
			if !ok {
				return fmt.Errorf("summary: attribute %d references unregistered id %d", attr, key)
			}
			if !sm.masks[i].Has(int(attr)) {
				return fmt.Errorf("summary: id %d in attribute %d rows but c3 bit unset", key, attr)
			}
			seen[key] = true
		}
		return nil
	}
	for attr, s := range sm.aacs {
		for _, r := range s.Rows() {
			if err := check(attr, r.IDs); err != nil {
				return err
			}
		}
		for _, e := range s.EqRows() {
			if err := check(attr, e.IDs); err != nil {
				return err
			}
		}
		for _, e := range s.NeRows() {
			if err := check(attr, e.IDs); err != nil {
				return err
			}
		}
	}
	for attr, s := range sm.sacs {
		for _, r := range s.Rows() {
			if err := check(attr, r.IDs); err != nil {
				return err
			}
		}
		for _, r := range s.NeRows() {
			if err := check(attr, r.IDs); err != nil {
				return err
			}
		}
	}
	for key := range sm.ids {
		if !seen[key] {
			return fmt.Errorf("summary: registered id %d appears in no structure", key)
		}
	}
	return nil
}
