// Package region implements Tebis regions: non-overlapping key ranges,
// each assigned to one primary and zero or more backup region servers
// (§3.1). The region map is the small (hundreds of KB in the paper)
// structure clients cache to route requests; it only changes on failures.
package region

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"tebis/internal/kv"
)

// ID identifies a region.
type ID uint16

// Region is one key range and its replica group.
type Region struct {
	// ID is the region's identifier.
	ID ID
	// Start is the inclusive lower bound of the key range.
	Start []byte
	// End is the exclusive upper bound; nil means +infinity.
	End []byte
	// Primary is the region server currently holding the primary role.
	Primary string
	// Backups are the region servers holding backup roles.
	Backups []string
}

// Contains reports whether key falls in the region's range.
func (r Region) Contains(key []byte) bool {
	if kv.Compare(key, r.Start) < 0 {
		return false
	}
	return r.End == nil || kv.Compare(key, r.End) < 0
}

// Clone deep-copies the region.
func (r Region) Clone() Region {
	c := r
	c.Start = append([]byte(nil), r.Start...)
	c.End = append([]byte(nil), r.End...)
	c.Backups = append([]string(nil), r.Backups...)
	return c
}

// Map is the routing table from key to region. Regions are sorted by
// Start and must tile the keyspace without overlap.
type Map struct {
	// Version increases on every reconfiguration so clients detect
	// staleness (§3.1).
	Version uint64
	// Regions are sorted by Start.
	Regions []Region
}

// Errors reported by the package.
var (
	ErrNoRegion  = errors.New("region: no region covers key")
	ErrBadMap    = errors.New("region: malformed region map")
	ErrUnknownID = errors.New("region: unknown region id")
)

// Lookup returns the region covering key.
func (m *Map) Lookup(key []byte) (Region, error) {
	n := len(m.Regions)
	i := sort.Search(n, func(i int) bool {
		return kv.Compare(m.Regions[i].Start, key) > 0
	}) - 1
	if i < 0 {
		return Region{}, fmt.Errorf("%w: %q before first region", ErrNoRegion, key)
	}
	r := m.Regions[i]
	if !r.Contains(key) {
		return Region{}, fmt.Errorf("%w: %q", ErrNoRegion, key)
	}
	return r, nil
}

// ByID returns the region with the given ID.
func (m *Map) ByID(id ID) (Region, error) {
	for _, r := range m.Regions {
		if r.ID == id {
			return r, nil
		}
	}
	return Region{}, fmt.Errorf("%w: %d", ErrUnknownID, id)
}

// Clone deep-copies the map.
func (m *Map) Clone() *Map {
	c := &Map{Version: m.Version, Regions: make([]Region, len(m.Regions))}
	for i, r := range m.Regions {
		c.Regions[i] = r.Clone()
	}
	return c
}

// SetPrimary reassigns the primary of region id (promotion). The old
// primary is removed from the backup list if present; the new primary is
// removed from backups. Bumps Version.
func (m *Map) SetPrimary(id ID, server string) error {
	for i := range m.Regions {
		if m.Regions[i].ID != id {
			continue
		}
		r := &m.Regions[i]
		backups := r.Backups[:0]
		for _, b := range r.Backups {
			if b != server {
				backups = append(backups, b)
			}
		}
		r.Backups = backups
		r.Primary = server
		m.Version++
		return nil
	}
	return fmt.Errorf("%w: %d", ErrUnknownID, id)
}

// ReplaceBackup swaps a failed backup for a new server. Bumps Version.
func (m *Map) ReplaceBackup(id ID, oldServer, newServer string) error {
	for i := range m.Regions {
		if m.Regions[i].ID != id {
			continue
		}
		r := &m.Regions[i]
		for j, b := range r.Backups {
			if b == oldServer {
				r.Backups[j] = newServer
				m.Version++
				return nil
			}
		}
		return fmt.Errorf("region: %d has no backup %q", id, oldServer)
	}
	return fmt.Errorf("%w: %d", ErrUnknownID, id)
}

// RemoveBackup drops a server from the region's backup list without a
// replacement (the master refills the slot separately). Bumps Version.
func (m *Map) RemoveBackup(id ID, server string) error {
	for i := range m.Regions {
		if m.Regions[i].ID != id {
			continue
		}
		r := &m.Regions[i]
		for j, b := range r.Backups {
			if b == server {
				r.Backups = append(r.Backups[:j], r.Backups[j+1:]...)
				m.Version++
				return nil
			}
		}
		return fmt.Errorf("region: %d has no backup %q", id, server)
	}
	return fmt.Errorf("%w: %d", ErrUnknownID, id)
}

// AddBackup appends a server to the region's backup list. Bumps Version.
func (m *Map) AddBackup(id ID, server string) error {
	for i := range m.Regions {
		if m.Regions[i].ID != id {
			continue
		}
		m.Regions[i].Backups = append(m.Regions[i].Backups, server)
		m.Version++
		return nil
	}
	return fmt.Errorf("%w: %d", ErrUnknownID, id)
}

// Partition tiles the 2-byte key prefix space into n regions and assigns
// primaries and backups round-robin over servers, placing each region's
// replicas on distinct servers. This mirrors the paper's setup of 32
// regions equally distributed across servers (§4).
func Partition(n int, servers []string, replicas int) (*Map, error) {
	if n < 1 || n > 1<<16 {
		return nil, fmt.Errorf("%w: %d regions", ErrBadMap, n)
	}
	if replicas < 0 || replicas >= len(servers) {
		return nil, fmt.Errorf("%w: %d backups with %d servers", ErrBadMap, replicas, len(servers))
	}
	m := &Map{Version: 1}
	step := (1 << 16) / n
	for i := 0; i < n; i++ {
		var start, end []byte
		if i > 0 {
			start = prefixBound(i * step)
		} else {
			start = []byte{}
		}
		if i < n-1 {
			end = prefixBound((i + 1) * step)
		}
		primary := servers[i%len(servers)]
		backups := make([]string, 0, replicas)
		for j := 1; j <= replicas; j++ {
			backups = append(backups, servers[(i+j)%len(servers)])
		}
		m.Regions = append(m.Regions, Region{
			ID:      ID(i),
			Start:   start,
			End:     end,
			Primary: primary,
			Backups: backups,
		})
	}
	return m, nil
}

func prefixBound(v int) []byte {
	b := make([]byte, 2)
	binary.BigEndian.PutUint16(b, uint16(v))
	return b
}

// Validate checks the map tiles the keyspace: sorted, contiguous,
// first region starts at the empty key, last region unbounded.
func (m *Map) Validate() error {
	if len(m.Regions) == 0 {
		return fmt.Errorf("%w: empty", ErrBadMap)
	}
	if len(m.Regions[0].Start) != 0 {
		return fmt.Errorf("%w: first region starts at %q", ErrBadMap, m.Regions[0].Start)
	}
	for i := 0; i < len(m.Regions)-1; i++ {
		if !bytes.Equal(m.Regions[i].End, m.Regions[i+1].Start) {
			return fmt.Errorf("%w: gap between regions %d and %d", ErrBadMap, i, i+1)
		}
	}
	if m.Regions[len(m.Regions)-1].End != nil {
		return fmt.Errorf("%w: last region bounded", ErrBadMap)
	}
	return nil
}

// Encode serializes the map (stored in the coordination service and
// shipped to clients).
func (m *Map) Encode() []byte {
	var out []byte
	out = binary.LittleEndian.AppendUint64(out, m.Version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(m.Regions)))
	for _, r := range m.Regions {
		out = binary.LittleEndian.AppendUint16(out, uint16(r.ID))
		out = appendBytes16(out, r.Start)
		if r.End == nil {
			out = append(out, 0)
		} else {
			out = append(out, 1)
			out = appendBytes16(out, r.End)
		}
		out = appendBytes16(out, []byte(r.Primary))
		out = append(out, byte(len(r.Backups)))
		for _, b := range r.Backups {
			out = appendBytes16(out, []byte(b))
		}
	}
	return out
}

// Decode parses an encoded map. Input left over after the last region
// is malformed: a truncated or differently laid out map must not parse
// as a shorter one.
func Decode(p []byte) (*Map, error) {
	if len(p) < 12 {
		return nil, ErrBadMap
	}
	m := &Map{Version: binary.LittleEndian.Uint64(p)}
	n := binary.LittleEndian.Uint32(p[8:])
	p = p[12:]
	var err error
	for i := uint32(0); i < n; i++ {
		var r Region
		if len(p) < 2 {
			return nil, ErrBadMap
		}
		r.ID = ID(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if r.Start, p, err = readBytes16(p); err != nil {
			return nil, err
		}
		if len(p) < 1 {
			return nil, ErrBadMap
		}
		bounded := p[0]
		p = p[1:]
		switch bounded {
		case 0:
		case 1:
			// A bound is a non-empty key: an empty one decodes to nil,
			// which Encode writes as unbounded.
			if r.End, p, err = readBytes16(p); err != nil {
				return nil, err
			}
			if len(r.End) == 0 {
				return nil, fmt.Errorf("%w: region %d bounded by the empty key", ErrBadMap, r.ID)
			}
		default:
			return nil, fmt.Errorf("%w: region %d bound flag %d", ErrBadMap, r.ID, bounded)
		}
		var prim []byte
		if prim, p, err = readBytes16(p); err != nil {
			return nil, err
		}
		r.Primary = string(prim)
		if len(p) < 1 {
			return nil, ErrBadMap
		}
		nb := int(p[0])
		p = p[1:]
		for j := 0; j < nb; j++ {
			var b []byte
			if b, p, err = readBytes16(p); err != nil {
				return nil, err
			}
			r.Backups = append(r.Backups, string(b))
		}
		m.Regions = append(m.Regions, r)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadMap, len(p))
	}
	return m, nil
}

func appendBytes16(dst, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(b)))
	return append(dst, b...)
}

func readBytes16(p []byte) ([]byte, []byte, error) {
	if len(p) < 2 {
		return nil, nil, ErrBadMap
	}
	n := int(binary.LittleEndian.Uint16(p))
	if len(p) < 2+n {
		return nil, nil, ErrBadMap
	}
	out := append([]byte(nil), p[2:2+n]...)
	return out, p[2+n:], nil
}
