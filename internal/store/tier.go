package store

import "errors"

// tiered composes stores into a read-through/write-through hierarchy:
// the local Disk cache in front of a shared Remote is the intended shape,
// but any stores compose. Gets consult tiers in order and a hit from a
// deeper tier is filled forward into every tier above it (best-effort —
// the fill is an optimization, the hit is already validated); Puts write
// through to every tier, so a fresh computation lands both in the local
// cache and on the shared server.
type tiered struct {
	tiers []Store
}

// Tier composes stores first-to-last into one read-through/write-through
// Store. Nil tiers are dropped; a single survivor is returned unwrapped
// and zero survivors return nil (no store at all).
func Tier(tiers ...Store) Store {
	kept := make([]Store, 0, len(tiers))
	for _, s := range tiers {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	default:
		return &tiered{tiers: kept}
	}
}

// Get returns the first tier's answer for key, filling shallower tiers on
// a deeper hit so the next lookup stops earlier.
func (t *tiered) Get(key string) ([]byte, bool) {
	for i, s := range t.tiers {
		data, ok := s.Get(key)
		if !ok {
			continue
		}
		for j := 0; j < i; j++ {
			// Best-effort read-through fill: a failed local write costs the
			// next lookup a remote round trip, nothing else.
			_ = t.tiers[j].Put(key, data)
		}
		return data, true
	}
	return nil, false
}

// Put writes through to every tier. All tiers are attempted even after a
// failure — a dead remote must not stop the local cache from persisting —
// and the joined error reports every tier that did fail.
func (t *tiered) Put(key string, data []byte) error {
	var errs []error
	for _, s := range t.tiers {
		if err := s.Put(key, data); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// OpenTiers opens the persistent tiers a run writes through, fenced to
// engine: the Disk store at dir (created if absent, rejected if fenced to
// another engine version or layout) in front of the Remote client at
// remoteURL when both are given — a read-through/write-through local cache
// for a shared server — or either alone, composed with Tier. It returns
// nil with neither. The Remote is also returned on its own (nil without a
// URL) so callers can report its transport counters.
func OpenTiers(dir, remoteURL, engine string) (Store, *Remote, error) {
	var tiers []Store
	if dir != "" {
		d, err := Open(dir, engine)
		if err != nil {
			return nil, nil, err
		}
		tiers = append(tiers, d)
	}
	if remoteURL == "" {
		return Tier(tiers...), nil, nil
	}
	r, err := NewRemote(remoteURL, engine, nil)
	if err != nil {
		return nil, nil, err
	}
	return Tier(append(tiers, r)...), r, nil
}
