package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
)

// Wire protocol: length-prefixed, checksummed frames, little endian.
//
//	frame  := length uint32 | version uint8 | kind uint8 | crc uint32 | payload
//	length counts version+kind+crc+payload bytes (6 + len(payload)).
//	crc is CRC32C (Castagnoli) over version, kind, and payload — the
//	checksum field itself excluded — so a bit flipped anywhere in the
//	frame body, a truncation, or a torn write is detected at decode
//	instead of being silently deserialized into vertex state.
const (
	fHello          = 1  // node -> coordinator: nodeID u32, dataAddr string
	fAddrBook       = 2  // coordinator -> node: n u32, then n strings
	fStart          = 3  // coordinator -> node: step u64, round u64
	fDispatchOver   = 4  // node -> coordinator: step u64, generated u64, delivered u64
	fComputeBarrier = 5  // coordinator -> node: step u64
	fComputeOver    = 6  // node -> coordinator: step u64, updates u64
	fHalt           = 7  // coordinator -> node: converged u8
	fValuesReq      = 8  // coordinator -> node: interval u32
	fValues         = 9  // node -> coordinator: first u64, count u64, payloads
	fBatch          = 10 // node -> node: round u64, seq u64, src u32, count u32, (dst u32, val u64)*
	fEOS            = 11 // node -> node: round u64, seq u64 (the sender's final seq for the round)
	fPeerHello      = 12 // node -> node: sender nodeID u32
	fHeartbeat      = 13 // node -> coordinator: liveness ping, no payload semantics
	fRollback       = 15 // coordinator -> node: step u64, round u64 (discard in-flight state; next attempt is round)
	fRollbackOver   = 16 // node -> coordinator: step u64 (rollback done, fresh crew spawned)
	fStepFailed     = 17 // node -> coordinator: step u64, reason string (retryable step-level failure)

	// Elastic membership frames (v3). Migration is barrier-only: the
	// coordinator issues these between supersteps, never inside one.
	// Kinds 14, 25 and 26 (REJOIN, DRAIN, DRAIN_OVER) are retired and
	// never reused.
	fJoin        = 18 // node -> coordinator: nodeID u32, epoch u64, dataAddr string (any node entering after the initial HELLO, sealed at the barrier epoch)
	fMigrateOut  = 19 // coordinator -> donor: interval u32, epoch u64 (extract and return the interval)
	fMigrateData = 20 // donor -> coordinator: interval u32, checksummed vertexfile blob
	fMigrateIn   = 21 // coordinator -> recipient: interval u32, blob (adopt it)
	fMigrateDone = 22 // recipient -> coordinator: interval u32 (adopted, durable)
	fRouting     = 23 // coordinator -> node: n u32, then n owner u32s (interval -> node table, atomically swapped)
	fRoutingOver = 24 // node -> coordinator: routing table installed
)

// protoVersion is the frame format version. A peer speaking any other
// version is rejected at the first frame instead of being misparsed.
// v3: batch frames carry the source interval id (elastic membership
// decoupled message grouping from node identity) and the membership
// frames above exist.
const protoVersion = 3

const maxFrame = 64 << 20

// frameOverhead is the byte count of version+kind+crc counted by the
// length prefix beyond the payload.
const frameOverhead = 6

// castagnoli is the CRC32C table shared by every frame encode/decode.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errFrameChecksum and errFrameVersion are matched with errors.Is by
// readers that route corruption into the superstep rollback path rather
// than treating it as a clean disconnect.
var (
	errFrameChecksum = errors.New("cluster: frame checksum mismatch")
	errFrameVersion  = errors.New("cluster: frame protocol version mismatch")
)

// frameCorrupt reports whether err means the peer's byte stream is
// damaged (checksum or version failure) as opposed to closed or timed out.
func frameCorrupt(err error) bool {
	return errors.Is(err, errFrameChecksum) || errors.Is(err, errFrameVersion)
}

// conn wraps a TCP connection with buffered, mutex-guarded frame I/O.
// Reads and writes may proceed concurrently; concurrent writers serialize
// on the write lock, so a frame is never interleaved.
type conn struct {
	c net.Conn

	// raw is the unwrapped connection: deadlines must reach the real
	// socket even when c is the flaky chaos wrapper.
	raw net.Conn
	br  *bufio.Reader

	// data marks node-to-node data-plane connections, the ones subject to
	// the fault package's drop/stall injection sites.
	data bool

	wmu sync.Mutex
	bw  *bufio.Writer
}

// newConn wraps nc for frame I/O. Every connection — control and data
// plane — goes through the flaky chaos wrapper; when no fault plan is
// active the wrapper is a single atomic load per write.
func newConn(nc net.Conn) *conn {
	fc := wrapFaulty(nc)
	return &conn{
		c:   fc,
		raw: nc,
		br:  bufio.NewReaderSize(fc, 1<<20),
		bw:  bufio.NewWriterSize(fc, 1<<20),
	}
}

func (c *conn) Close() error { return c.c.Close() }

// closeQuietly releases a connection, listener, or file on a teardown or
// already-failing path. The single sanctioned discard lives here so every
// other ignored Close stays a lint finding.
func closeQuietly(c io.Closer) {
	_ = c.Close() //lint:syncerr best-effort release on teardown; the primary error is already propagating
}

// membershipFrame reports whether kind belongs to the elastic-membership
// protocol — the frames the chaos harness can disturb through the
// cluster.migrate.* fault sites.
func membershipFrame(kind byte) bool { return kind >= fJoin && kind <= fRoutingOver }

// writeFrame sends one frame and flushes it. On data-plane connections
// the fault sites fire before anything is buffered, so an injected drop
// never tears a frame: the sender can redial and resend it whole.
// Membership frames consult their own sites (membershipFault), two of
// which — corrupt and short-write — deliberately damage the frame on the
// wire so the receiver's checksum, not the sender, has to catch it.
//
//gpsa:noalloc
func (c *conn) writeFrame(kind byte, payload []byte) error {
	if c.data {
		fault.Stall(fault.SiteConnStall)
		if ferr := fault.Error(fault.SiteConnDrop); ferr != nil {
			closeQuietly(c.c)
			return fmt.Errorf("cluster: injected connection drop: %w", ferr)
		}
	}
	var corrupt, short bool
	if membershipFrame(kind) {
		var ferr error
		if corrupt, short, ferr = membershipFault(); ferr != nil {
			closeQuietly(c.c)
			return fmt.Errorf("cluster: injected migration reset: %w", ferr)
		}
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var hdr [10]byte //lint:noalloc hdr escapes through the io.Writer parameter; one fixed 10-byte header per frame, amortized over the payload it carries
	binary.LittleEndian.PutUint32(hdr[0:], uint32(frameOverhead+len(payload)))
	hdr[4] = protoVersion
	hdr[5] = kind
	crc := crc32.Update(0, castagnoli, hdr[4:6])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[6:], crc)
	if corrupt {
		// The CRC above covers the original bytes; flipping one bit after
		// sealing it guarantees the receiver rejects the frame at decode.
		if len(payload) > 0 {
			//lint:noalloc fault-injection corrupt branch; never taken outside chaos runs
			cp := make([]byte, len(payload))
			copy(cp, payload)
			cp[len(cp)/2] ^= 0x40
			payload = cp
		} else {
			hdr[6] ^= 0x40
		}
	}
	if short {
		// A prefix reaches the wire, then the connection dies: the torn
		// frame the length prefix + checksum must surface as an error.
		if _, err := c.bw.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := c.bw.Write(payload[:len(payload)/2]); err != nil {
			return err
		}
		if err := c.bw.Flush(); err != nil {
			return err
		}
		closeQuietly(c.c)
		return fmt.Errorf("cluster: injected migration short write: %w", fault.ErrInjected)
	}
	if _, err := c.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := c.bw.Write(payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// readFrameFrom decodes one checksummed frame from r. Split out from conn
// so the fuzzer can drive the decoder with raw byte streams. Any header
// the checksum does not vouch for — wrong version, corrupt bytes,
// truncation mid-frame — yields an error, never a misparsed frame.
//
//gpsa:noalloc
func readFrameFrom(r io.Reader) (kind byte, payload []byte, err error) {
	var hdr [4]byte //lint:noalloc hdr escapes through the io.Reader parameter; one fixed 4-byte header per frame, amortized over the payload it carries
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < frameOverhead || n > maxFrame {
		return 0, nil, fmt.Errorf("cluster: bad frame length %d", n)
	}
	buf := make([]byte, n) //lint:noalloc one payload buffer per frame is the wire path's unit of work
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	if buf[0] != protoVersion {
		return 0, nil, fmt.Errorf("%w: got %d, want %d", errFrameVersion, buf[0], protoVersion)
	}
	want := binary.LittleEndian.Uint32(buf[2:6])
	got := crc32.Update(0, castagnoli, buf[0:2])
	got = crc32.Update(got, castagnoli, buf[frameOverhead:])
	if got != want {
		metrics.Inc(metrics.CtrClusterChecksumFailures)
		return 0, nil, fmt.Errorf("%w: computed %#x, frame carries %#x", errFrameChecksum, got, want)
	}
	return buf[1], buf[frameOverhead:], nil
}

// readFrame receives the next frame.
func (c *conn) readFrame() (kind byte, payload []byte, err error) {
	return readFrameFrom(c.br)
}

// readFrameLive reads the next non-heartbeat frame, bounding how long the
// peer may go silent: every received frame — heartbeats included —
// refreshes the deadline, so a node that is alive but slow to make
// progress is distinguished from one that is gone. d <= 0 disables the
// liveness deadline. A non-zero progress time additionally bounds the
// whole read — heartbeats do NOT extend it — so a node that is alive but
// making no protocol progress (wedged, or cut off by a one-way partition
// its heartbeats still cross) is eventually surfaced as errNoProgress.
func (c *conn) readFrameLive(d time.Duration, progress time.Time) (byte, []byte, error) {
	for {
		deadline := time.Time{}
		if d > 0 {
			deadline = time.Now().Add(d) //lint:nondeterministic liveness deadline; timing never feeds vertex state
		}
		if !progress.IsZero() && (deadline.IsZero() || progress.Before(deadline)) {
			deadline = progress
		}
		if !deadline.IsZero() {
			c.raw.SetReadDeadline(deadline) //nolint:errcheck
		}
		kind, payload, err := c.readFrame()
		if err != nil {
			var ne net.Error
			//lint:nondeterministic distinguishing a liveness expiry from a progress expiry needs the clock; timing never feeds vertex state
			if errors.As(err, &ne) && ne.Timeout() && !progress.IsZero() && !time.Now().Before(progress) {
				return 0, nil, errNoProgress
			}
			return 0, nil, err
		}
		if kind == fHeartbeat {
			continue
		}
		if !deadline.IsZero() {
			c.raw.SetReadDeadline(time.Time{}) //nolint:errcheck
		}
		return kind, payload, nil
	}
}

// errNoProgress marks a read that saw liveness (heartbeats) but no
// protocol frame within the coordinator's phase-progress budget.
var errNoProgress = errors.New("cluster: no protocol progress within the phase timeout")

// payload builders --------------------------------------------------------

func u64Payload(vals ...uint64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	return b
}

func readU64s(payload []byte, n int) ([]uint64, error) {
	if len(payload) < 8*n {
		return nil, fmt.Errorf("cluster: payload of %d bytes, want %d u64s", len(payload), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(payload[8*i:])
	}
	return out, nil
}

func helloPayload(node uint32, addr string) []byte {
	b := make([]byte, 4+2+len(addr))
	binary.LittleEndian.PutUint32(b[0:], node)
	binary.LittleEndian.PutUint16(b[4:], uint16(len(addr)))
	copy(b[6:], addr)
	return b
}

func parseHello(p []byte) (node uint32, addr string, err error) {
	if len(p) < 6 {
		return 0, "", fmt.Errorf("cluster: short hello")
	}
	node = binary.LittleEndian.Uint32(p[0:])
	n := int(binary.LittleEndian.Uint16(p[4:]))
	if len(p) < 6+n {
		return 0, "", fmt.Errorf("cluster: truncated hello address")
	}
	return node, string(p[6 : 6+n]), nil
}

// joinPayload is the hello of a node entering a running job — a joiner
// or a same-id replacement: which node it is, the epoch its sealed value
// file sits at, and its fresh data address.
func joinPayload(node uint32, epoch uint64, addr string) []byte {
	b := make([]byte, 4+8+2+len(addr))
	binary.LittleEndian.PutUint32(b[0:], node)
	binary.LittleEndian.PutUint64(b[4:], epoch)
	binary.LittleEndian.PutUint16(b[12:], uint16(len(addr)))
	copy(b[14:], addr)
	return b
}

func parseJoin(p []byte) (node uint32, epoch uint64, addr string, err error) {
	if len(p) < 14 {
		return 0, 0, "", fmt.Errorf("cluster: short join")
	}
	node = binary.LittleEndian.Uint32(p[0:])
	epoch = binary.LittleEndian.Uint64(p[4:])
	n := int(binary.LittleEndian.Uint16(p[12:]))
	if len(p) < 14+n {
		return 0, 0, "", fmt.Errorf("cluster: truncated join address")
	}
	return node, epoch, string(p[14 : 14+n]), nil
}

// stepFailedPayload reports a retryable step-level failure to the
// coordinator. The reason is bounded so a pathological error can never
// approach the frame limit.
func stepFailedPayload(step uint64, reason string) []byte {
	const maxReason = 1 << 12
	if len(reason) > maxReason {
		reason = reason[:maxReason]
	}
	b := make([]byte, 8+2+len(reason))
	binary.LittleEndian.PutUint64(b[0:], step)
	binary.LittleEndian.PutUint16(b[8:], uint16(len(reason)))
	copy(b[10:], reason)
	return b
}

func parseStepFailed(p []byte) (step uint64, reason string, err error) {
	if len(p) < 10 {
		return 0, "", fmt.Errorf("cluster: short step-failed frame")
	}
	step = binary.LittleEndian.Uint64(p[0:])
	n := int(binary.LittleEndian.Uint16(p[8:]))
	if len(p) < 10+n {
		return 0, "", fmt.Errorf("cluster: truncated step-failed reason")
	}
	return step, string(p[10 : 10+n]), nil
}

func addrBookPayload(addrs []string) []byte {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, uint32(len(addrs)))
	for _, a := range addrs {
		var l [2]byte
		binary.LittleEndian.PutUint16(l[:], uint16(len(a)))
		b = append(b, l[:]...)
		b = append(b, a...)
	}
	return b
}

func parseAddrBook(p []byte) ([]string, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("cluster: short address book")
	}
	n := int(binary.LittleEndian.Uint32(p))
	if n > 1<<16 {
		return nil, fmt.Errorf("cluster: absurd address book size %d", n)
	}
	addrs := make([]string, 0, n)
	off := 4
	for i := 0; i < n; i++ {
		if len(p) < off+2 {
			return nil, fmt.Errorf("cluster: truncated address book")
		}
		l := int(binary.LittleEndian.Uint16(p[off:]))
		off += 2
		if len(p) < off+l {
			return nil, fmt.Errorf("cluster: truncated address book entry")
		}
		addrs = append(addrs, string(p[off:off+l]))
		off += l
	}
	return addrs, nil
}

// batchPayload frames a data batch tagged with the superstep attempt
// (round), the sender's per-round sequence number, and the source
// interval the batch was generated from. The round/seq tags make the
// data plane exactly-once over an at-least-once transport: a resent
// frame that was in fact delivered is deduplicated by seq, frames racing
// across an old and a redialed connection are released in seq order, and
// anything from an aborted round is dropped at the gate. The src tag
// gives the batch its turn at the receiver's computer by interval
// rather than by node, so the apply order — and with it bit-identical
// results — is invariant under migration, join, and drain.
func batchPayload(round, seq uint64, src uint32, batch []core.Message) []byte {
	b := make([]byte, 24+12*len(batch))
	binary.LittleEndian.PutUint64(b[0:], round)
	binary.LittleEndian.PutUint64(b[8:], seq)
	binary.LittleEndian.PutUint32(b[16:], src)
	binary.LittleEndian.PutUint32(b[20:], uint32(len(batch)))
	off := 24
	for _, m := range batch {
		binary.LittleEndian.PutUint32(b[off:], m.Dst)
		binary.LittleEndian.PutUint64(b[off+4:], m.Val)
		off += 12
	}
	return b
}

func parseBatch(p []byte) (round, seq uint64, src uint32, batch []core.Message, err error) {
	if len(p) < 24 {
		return 0, 0, 0, nil, fmt.Errorf("cluster: short batch")
	}
	round = binary.LittleEndian.Uint64(p[0:])
	seq = binary.LittleEndian.Uint64(p[8:])
	src = binary.LittleEndian.Uint32(p[16:])
	n := int(binary.LittleEndian.Uint32(p[20:]))
	// Guard the multiplication: an adversarial count must not wrap around
	// and slip past the length check.
	if n < 0 || n > (len(p)-24)/12 || len(p) != 24+12*n {
		return 0, 0, 0, nil, fmt.Errorf("cluster: batch of %d messages in %d bytes", n, len(p))
	}
	out := make([]core.Message, n)
	off := 24
	for i := range out {
		out[i] = core.Message{
			Dst: binary.LittleEndian.Uint32(p[off:]),
			Val: binary.LittleEndian.Uint64(p[off+4:]),
		}
		off += 12
	}
	return round, seq, src, out, nil
}

// ivPayload / parseIv carry a single interval id (fValuesReq,
// fMigrateDone).
func ivPayload(iv uint32) []byte {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, iv)
	return b
}

func parseIv(p []byte) (uint32, error) {
	if len(p) < 4 {
		return 0, fmt.Errorf("cluster: short interval frame")
	}
	return binary.LittleEndian.Uint32(p), nil
}

// migrateReqPayload asks a donor to extract an interval: the epoch pins
// the barrier both sides must agree on, so a request that raced a
// rollback is rejected instead of shipping stale state.
func migrateReqPayload(iv uint32, epoch uint64) []byte {
	b := make([]byte, 12)
	binary.LittleEndian.PutUint32(b[0:], iv)
	binary.LittleEndian.PutUint64(b[4:], epoch)
	return b
}

func parseMigrateReq(p []byte) (iv uint32, epoch uint64, err error) {
	if len(p) < 12 {
		return 0, 0, fmt.Errorf("cluster: short migrate request")
	}
	return binary.LittleEndian.Uint32(p[0:]), binary.LittleEndian.Uint64(p[4:]), nil
}

// migrateBlobPayload carries an extracted interval blob (fMigrateData,
// fMigrateIn). The blob is self-validating (vertexfile digest) on top of
// the frame checksum, so a migration can never half-apply.
func migrateBlobPayload(iv uint32, blob []byte) []byte {
	b := make([]byte, 4+len(blob))
	binary.LittleEndian.PutUint32(b[0:], iv)
	copy(b[4:], blob)
	return b
}

func parseMigrateBlob(p []byte) (iv uint32, blob []byte, err error) {
	if len(p) < 4 {
		return 0, nil, fmt.Errorf("cluster: short migrate blob frame")
	}
	// The blob slice aliases the frame buffer, which is fresh per frame —
	// safe to hand to AdoptInterval without copying.
	return binary.LittleEndian.Uint32(p[0:]), p[4:], nil
}

// maxIntervals bounds the routing table size a frame may claim.
const maxIntervals = 1 << 20

// routingPayload serializes the interval -> owning-node table. Every
// node installs it atomically at a barrier (fRouting / fRoutingOver), so
// the whole cluster always agrees on who owns what.
func routingPayload(owners []int) []byte {
	b := make([]byte, 4+4*len(owners))
	binary.LittleEndian.PutUint32(b[0:], uint32(len(owners)))
	for i, o := range owners {
		binary.LittleEndian.PutUint32(b[4+4*i:], uint32(o))
	}
	return b
}

func parseRouting(p []byte) ([]int, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("cluster: short routing table")
	}
	n := int(binary.LittleEndian.Uint32(p))
	if n <= 0 || n > maxIntervals || len(p) != 4+4*n {
		return nil, fmt.Errorf("cluster: routing table of %d intervals in %d bytes", n, len(p))
	}
	owners := make([]int, n)
	for i := range owners {
		owners[i] = int(binary.LittleEndian.Uint32(p[4+4*i:]))
	}
	return owners, nil
}

func valuesPayload(first int64, payloads []uint64) []byte {
	b := make([]byte, 16+8*len(payloads))
	binary.LittleEndian.PutUint64(b[0:], uint64(first))
	binary.LittleEndian.PutUint64(b[8:], uint64(len(payloads)))
	for i, v := range payloads {
		binary.LittleEndian.PutUint64(b[16+8*i:], v)
	}
	return b
}

func parseValues(p []byte) (first int64, payloads []uint64, err error) {
	if len(p) < 16 {
		return 0, nil, fmt.Errorf("cluster: short values frame")
	}
	first = int64(binary.LittleEndian.Uint64(p[0:]))
	n := int(binary.LittleEndian.Uint64(p[8:]))
	if n < 0 || n > (len(p)-16)/8 || len(p) != 16+8*n {
		return 0, nil, fmt.Errorf("cluster: values frame of %d payloads in %d bytes", n, len(p))
	}
	payloads = make([]uint64, n)
	for i := range payloads {
		payloads[i] = binary.LittleEndian.Uint64(p[16+8*i:])
	}
	return first, payloads, nil
}
