package server

import (
	"tebis/internal/lsm"
	"tebis/internal/region"
)

// regionRef is an op's hold on the region it addressed: the engine
// serving it and the region's bound. A value, not a closure: acquiring a
// region allocates nothing.
type regionRef struct {
	db *lsm.DB
	// end is the addressed region's exclusive upper bound (nil for +inf):
	// the server does not range-check a put, so a scan stops here to keep
	// its reply inside the addressed region. It is the hosted
	// descriptor's own slice — descriptors are replaced, never edited, so
	// it is safe to read without the lock, and must not be written.
	end []byte
}

// acquire resolves the engine serving region id for one op: the region
// must be hosted here, in the primary role.
func (s *Server) acquire(id region.ID) (regionRef, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return regionRef{}, ErrClosed
	}
	hr, ok := s.regions[id]
	if !ok {
		return regionRef{}, ErrUnknownRegion
	}
	if hr.db == nil {
		return regionRef{}, ErrNotPrimary
	}
	return regionRef{db: hr.db, end: hr.info.End}, nil
}
