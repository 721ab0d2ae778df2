package server

// EmptySweeps lets the external tests, which build whole clusters, read
// the sweeps s's spinning threads found nothing in.
func EmptySweeps(s *Server) uint64 { return s.emptySweeps() }
