package fault

import "net"

// Conn wraps c with the injector's fault schedule, extending the same
// deterministic Rule machinery from disk I/O to a network connection: Read
// calls match OpRead, Write calls match OpWrite (AfterBytes budgets, Short
// torn writes and Delay latency all apply exactly as for files), and Close
// matches OpClose. The name plays the role of the path for Rule matching,
// so one injector can carry per-connection schedules ("srv-3") next to disk
// rules — and Heal disarms both at once.
//
// Semantics of a fire mirror injFile: Delay sleeps before anything else; a
// short write-fire writes a seeded-random proper prefix to the underlying
// conn before failing, producing a genuinely torn frame on the peer's side
// (the network shape of a torn tail); a Close fire still closes the
// underlying conn, like a real close failure releasing the fd. A read-fire
// first takes what the peer sent off the underlying conn and loses it: a
// Read is usually issued long before its data exists, and a fault decided
// then would always land between messages; this one lands after the peer's
// bytes left it — the reset that eats a request in flight.
func (inj *Injector) Conn(c net.Conn, name string) net.Conn {
	return &injConn{inj: inj, Conn: c, name: name}
}

type injConn struct {
	inj *Injector
	net.Conn
	name string
}

func (c *injConn) Read(p []byte) (int, error) {
	err, delay, _ := c.inj.decide(OpRead, c.name, len(p))
	sleep(delay)
	if err != nil {
		c.Conn.Read(p)
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c *injConn) Write(p []byte) (int, error) {
	err, delay, short := c.inj.decide(OpWrite, c.name, len(p))
	sleep(delay)
	if err != nil {
		if short > 0 && short < len(p) {
			n, _ := c.Conn.Write(p[:short])
			return n, err
		}
		return 0, err
	}
	return c.Conn.Write(p)
}

func (c *injConn) Close() error {
	err, delay, _ := c.inj.decide(OpClose, c.name, 0)
	sleep(delay)
	if err != nil {
		c.Conn.Close()
		return err
	}
	return c.Conn.Close()
}

// CloseWrite forwards a TCP half-close when the underlying conn supports it
// (a client that hit a write fault half-closes, then drains responses until
// EOF so every fully-sent request resolves definitely). Half-closes are
// control-plane, not data-plane, so no rule matches them.
func (c *injConn) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return c.Conn.Close()
}

// CloseRead forwards a read-side shutdown when supported (the server's
// graceful drain path).
func (c *injConn) CloseRead() error {
	if cr, ok := c.Conn.(interface{ CloseRead() error }); ok {
		return cr.CloseRead()
	}
	return nil
}
