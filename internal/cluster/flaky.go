package cluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/fault"
)

// flakyConn is the chaos-injection transport wrapper installed under
// every cluster connection — control and data plane alike. Each Write
// consults the cluster.conn.* fault sites, so a seeded plan can subject
// any link to delay, reset, short-write, bit corruption, or a self-
// healing one-way partition. With no plan active every site check is one
// atomic pointer load, so the wrapper costs nothing in normal operation.
//
// Each endpoint wraps its own side of the socket, so arming a site
// perturbs only the wrapped direction: a firing partition blackholes
// this side's writes while the reverse path keeps flowing — the one-way
// case heartbeat liveness alone cannot distinguish from health.
type flakyConn struct {
	net.Conn

	mu        sync.Mutex
	partUntil time.Time // writes are blackholed until this instant
}

// wrapFaulty installs the chaos wrapper over nc.
func wrapFaulty(nc net.Conn) net.Conn { return &flakyConn{Conn: nc} }

func (f *flakyConn) Write(b []byte) (int, error) {
	fault.Stall(fault.SiteConnDelay)
	if fr := fault.Hit(fault.SiteConnPartition); fr != nil {
		f.mu.Lock()
		f.partUntil = time.Now().Add(fr.Delay) //lint:nondeterministic the partition heal window is test-only chaos, never vertex state
		f.mu.Unlock()
	}
	f.mu.Lock()
	blackholed := time.Now().Before(f.partUntil) //lint:nondeterministic the partition heal window is test-only chaos, never vertex state
	f.mu.Unlock()
	if blackholed {
		// A one-way partition: the bytes vanish but the writer sees
		// success, exactly like a link silently eating packets. The
		// receiver's sequence numbers surface the gap and the
		// coordinator's progress timeout converts it into a rollback.
		return len(b), nil
	}
	if ferr := fault.Error(fault.SiteConnReset); ferr != nil {
		closeQuietly(f.Conn)
		return 0, fmt.Errorf("cluster: injected connection reset: %w", ferr)
	}
	if ferr := fault.Error(fault.SiteConnShortWrite); ferr != nil && len(b) > 1 {
		n, _ := f.Conn.Write(b[:len(b)/2]) //nolint:errcheck
		closeQuietly(f.Conn)
		return n, fmt.Errorf("cluster: injected short write after %d of %d bytes: %w", n, len(b), ferr)
	}
	if fault.Hit(fault.SiteConnCorrupt) != nil && len(b) > 0 {
		// Flip one bit of a copy (the caller's buffer must stay intact
		// for a potential resend). The frame checksum must catch this.
		c := make([]byte, len(b))
		copy(c, b)
		c[len(c)/2] ^= 0x40
		return f.Conn.Write(c)
	}
	return f.Conn.Write(b)
}

// membershipFault consults the cluster.migrate.* fault sites on behalf
// of writeFrame, which calls it once per elastic-membership frame
// (JOIN/MIGRATE/ROUTING) about to hit the wire. The generic
// cluster.conn.* sites above fire per raw write on every link; these
// fire per membership frame, so a seeded plan can park a disturbance on
// exactly the Nth step of a migration. Delay stalls the frame, reset
// kills the connection before anything is buffered (err non-nil), and
// corrupt/short-write report that writeFrame itself must damage the
// frame after sealing its checksum — the receiver, not the sender, has
// to catch those.
func membershipFault() (corrupt, short bool, err error) {
	fault.Stall(fault.SiteMigrateStall)
	if ferr := fault.Error(fault.SiteMigrateReset); ferr != nil {
		return false, false, ferr
	}
	corrupt = fault.Error(fault.SiteMigrateCorrupt) != nil
	short = fault.Error(fault.SiteMigrateShortWrite) != nil
	return corrupt, short, nil
}
