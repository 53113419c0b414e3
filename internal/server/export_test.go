package server

import "time"

// SetLimits lowers the connection cap and the idle deadline — constants in
// production — so a test can reach them. Call before Start.
func (s *Server) SetLimits(maxConns int, idle time.Duration) {
	s.maxConns, s.idle = maxConns, idle
}

// MaxStaged is the per-connection bound on acks parked with the syncer.
const MaxStaged = maxStaged
