package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TCP transport: each rank is its own process (on one machine or many),
// meshed pairwise over TCP streams. Frames are length-prefixed (codec.go)
// and decoded into the receiving rank's per-source matcher — the same
// matcher the in-process world delivers into — so the two transports are
// interchangeable under the domain layer and held bit-identical by the
// differential tests.
//
// Rendezvous is either a static host list (every rank knows everyone's
// listen address up front) or a small coordinator service: each rank
// registers its peer-listener address and receives the full table. The
// mesh is then established lower-rank-listens / higher-rank-dials with
// startup retries, one duplex connection per unordered pair.
//
// Progress is asynchronous by construction: a reader goroutine per
// connection drains frames into the per-source matcher, and a writer
// goroutine per connection drains an outgoing frame queue — so Send
// returns after encoding and Irecv completion only needs a queue pop.
// This is what lets the staged halo exchange overlap communication with
// packing and local compute (Sec. 7.2).
//
// Failure semantics are World.Abort's: a clean shutdown sends a bye
// frame, so an unexpected EOF or connection error (a killed rank) aborts
// the whole local world, unblocking every pending operation with the
// cause instead of deadlocking.

// TCPConfig configures one rank's endpoint of a TCP world.
type TCPConfig struct {
	// Rank and Size identify this process in the world.
	Rank, Size int
	// Coordinator is the rendezvous service address. With HostCoordinator
	// set, rank 0 serves it (start rank 0 first, or rely on the dial
	// retries); otherwise an external ServeRendezvous must be reachable
	// there (the launcher does this). Ignored when Hosts is set.
	Coordinator string
	// HostCoordinator makes rank 0 serve the rendezvous itself.
	HostCoordinator bool
	// Hosts is the static rendezvous alternative: the full host:port
	// peer-listener table, indexed by rank. Rank i binds the port of
	// Hosts[i]. No coordinator is contacted.
	Hosts []string
	// Listen is the peer-listener bind address (default ":0").
	Listen string
	// Advertise overrides the address other ranks dial for this rank
	// (default: host as seen by the coordinator + actual listen port).
	Advertise string
	// DialTimeout bounds rendezvous and mesh establishment (default 10s).
	DialTimeout time.Duration
}

// TCPWorld is one process's endpoint of a multi-process world. Unlike the
// in-process World it holds exactly one rank; Comm returns its
// communicator. Counters are per process: Messages/Bytes count this
// rank's sent payloads (codec-exact), WireBytes the actual framed bytes
// handed to the socket (payload + 9-byte header per message).
type TCPWorld struct {
	abortState
	peers   []*tcpPeer
	comm    Comm
	closing atomic.Bool
	wg      sync.WaitGroup
	wire    atomic.Int64
}

type tcpPeer struct {
	conn net.Conn
	out  chan []byte
}

// DialTCP establishes this rank's endpoint: rendezvous, pairwise mesh,
// then background reader/writer goroutines per connection. It blocks
// until the full mesh is up (which doubles as the initial barrier).
func DialTCP(cfg TCPConfig) (*TCPWorld, error) {
	if cfg.Size < 1 || cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("mpi: bad rank %d of %d", cfg.Rank, cfg.Size)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	deadline := time.Now().Add(cfg.DialTimeout)

	w := &TCPWorld{
		abortState: abortState{done: make(chan struct{})},
		peers:      make([]*tcpPeer, cfg.Size),
	}
	w.comm.init(cfg.Rank, cfg.Size, w, &w.abortState)
	if cfg.Size == 1 {
		return w, nil
	}

	// Peer listener first: its address goes into the rendezvous table.
	bind := cfg.Listen
	if len(cfg.Hosts) > 0 {
		if len(cfg.Hosts) != cfg.Size {
			return nil, fmt.Errorf("mpi: %d hosts for %d ranks", len(cfg.Hosts), cfg.Size)
		}
		_, port, err := net.SplitHostPort(cfg.Hosts[cfg.Rank])
		if err != nil {
			return nil, fmt.Errorf("mpi: host entry %q: %w", cfg.Hosts[cfg.Rank], err)
		}
		bind = ":" + port
	} else if bind == "" {
		bind = ":0"
	}
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("mpi: peer listener: %w", err)
	}
	defer ln.Close()

	table := cfg.Hosts
	if table == nil {
		port := ln.Addr().(*net.TCPAddr).Port
		if cfg.HostCoordinator && cfg.Rank == 0 {
			cln, err := net.Listen("tcp", cfg.Coordinator)
			if err != nil {
				return nil, fmt.Errorf("mpi: coordinator listener: %w", err)
			}
			go func() {
				defer cln.Close()
				ServeRendezvous(cln, cfg.Size)
			}()
		}
		table, err = rendezvous(cfg, port, deadline)
		if err != nil {
			return nil, err
		}
	}

	// Mesh: dial every lower rank, accept every higher rank. The hello
	// frame identifies the dialer.
	type dialed struct {
		src  int
		conn net.Conn
		err  error
	}
	results := make(chan dialed, cfg.Size)
	for j := 0; j < cfg.Rank; j++ {
		go func(j int) {
			conn, err := dialRetry(table[j], deadline)
			if err == nil {
				err = writeFrame(conn, kindHello, cfg.Rank, nil)
			}
			results <- dialed{src: j, conn: conn, err: err}
		}(j)
	}
	accepts := cfg.Size - 1 - cfg.Rank
	go func() {
		for i := 0; i < accepts; i++ {
			if err := ln.(*net.TCPListener).SetDeadline(deadline); err != nil {
				results <- dialed{err: err}
				return
			}
			conn, err := ln.Accept()
			if err != nil {
				results <- dialed{err: fmt.Errorf("mpi: accepting peer: %w", err)}
				return
			}
			go func(conn net.Conn) {
				kind, src, payload, err := readFrame(conn)
				if err == nil && (kind != kindHello || len(payload) != 0 || src <= cfg.Rank || src >= cfg.Size) {
					err = fmt.Errorf("mpi: bad hello (kind 0x%02x, src %d)", kind, src)
				}
				if err != nil {
					conn.Close()
					results <- dialed{err: err}
					return
				}
				results <- dialed{src: src, conn: conn}
			}(conn)
		}
	}()
	for i := 0; i < cfg.Size-1; i++ {
		d := <-results
		if d.err == nil && w.peers[d.src] != nil {
			d.err = fmt.Errorf("mpi: duplicate connection from rank %d", d.src)
		}
		if d.err != nil {
			w.shutdownConns()
			return nil, d.err
		}
		w.peers[d.src] = &tcpPeer{conn: d.conn, out: make(chan []byte, 256)}
	}

	for src, p := range w.peers {
		if p == nil {
			continue
		}
		w.wg.Add(2)
		go w.readLoop(src, p)
		go w.writeLoop(p)
	}
	return w, nil
}

// Rank returns this process's rank.
func (w *TCPWorld) Rank() int { return w.comm.rank }

// Size returns the world size.
func (w *TCPWorld) Size() int { return w.comm.size }

// Messages returns the number of messages this rank has sent.
func (w *TCPWorld) Messages() int64 { return w.comm.SentMessages() }

// Bytes returns the codec-exact payload bytes this rank has sent.
func (w *TCPWorld) Bytes() int64 { return w.comm.SentBytes() }

// WireBytes returns the actual framed bytes handed to the sockets:
// Bytes() plus the 9-byte header per message (hello/bye frames excluded).
func (w *TCPWorld) WireBytes() int64 { return w.wire.Load() }

// Err returns the abort cause, or nil.
func (w *TCPWorld) Err() error {
	if e := w.err.Load(); e != nil {
		return e
	}
	return nil
}

// Comm returns this rank's communicator.
func (w *TCPWorld) Comm() *Comm { return &w.comm }

// Abort tears the world down, unblocking all pending operations here and
// (via the broken connections) on every peer.
func (w *TCPWorld) Abort() { w.fail(errors.New("aborted by application")) }

// fail records the first failure cause and tears the transport down.
func (w *TCPWorld) fail(cause error) {
	if w.trip(cause) {
		w.shutdownConns()
	}
}

func (w *TCPWorld) shutdownConns() {
	for _, p := range w.peers {
		if p != nil && p.conn != nil {
			p.conn.Close()
		}
	}
}

// Close shuts the world down cleanly: a bye frame tells every peer no
// more frames follow, so their readers exit without aborting. Blocks
// (bounded) until the local goroutines drain. Returns the abort cause if
// the world failed instead.
func (w *TCPWorld) Close() error {
	if w.closing.Swap(true) {
		return w.Err()
	}
	if w.Err() == nil {
		for _, p := range w.peers {
			if p == nil {
				continue
			}
			bye := appendHeader(nil, 0, kindBye, 0)
			select {
			case p.out <- bye:
			case <-w.done:
			}
			close(p.out)
		}
		done := make(chan struct{})
		go func() { w.wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
		}
	}
	w.shutdownConns()
	return w.Err()
}

// readLoop drains one peer's frames into the source's matcher.
func (w *TCPWorld) readLoop(src int, p *tcpPeer) {
	defer w.wg.Done()
	for {
		kind, tag, payload, err := readFrame(p.conn)
		if err != nil {
			if w.closing.Load() || w.Err() != nil {
				return
			}
			w.fail(fmt.Errorf("rank %d connection: %w", src, err))
			return
		}
		if kind == kindBye {
			w.comm.match[src].closePeer()
			w.comm.sysMatch[src].closePeer()
			return
		}
		v, err := decodePayload(kind, payload)
		if err != nil {
			w.fail(fmt.Errorf("frame from rank %d tag %d: %w", src, tag, err))
			return
		}
		w.comm.inbox(src, tag).push(message{tag: tag, payload: v})
	}
}

// writeLoop drains the outgoing frame queue onto the socket.
func (w *TCPWorld) writeLoop(p *tcpPeer) {
	defer w.wg.Done()
	for frame := range p.out {
		if _, err := p.conn.Write(frame); err != nil {
			if w.closing.Load() || w.Err() != nil {
				return
			}
			w.fail(fmt.Errorf("write: %w", err))
			return
		}
	}
}

// deliver encodes and enqueues one message; the payload buffer is free
// for reuse on return. A send to this rank itself skips the socket and
// pushes a copy into the matcher. n is the codec-exact payload size.
func (w *TCPWorld) deliver(src, dst, tag int, payload any, n int64) {
	if dst == src {
		w.wire.Add(n + frameHeaderSize)
		w.comm.inbox(src, tag).push(message{tag: tag, payload: clonePayload(payload)})
		return
	}
	frame := encodeFrame(make([]byte, 0, frameHeaderSize+int(n)), tag, payload)
	w.wire.Add(int64(len(frame)))
	select {
	case w.peers[dst].out <- frame:
	case <-w.done:
		panic(w.err.Load())
	}
}

// Frame IO.

func writeFrame(conn net.Conn, kind byte, tag int, payload []byte) error {
	frame := appendHeader(make([]byte, 0, frameHeaderSize+len(payload)), len(payload), kind, tag)
	frame = append(frame, payload...)
	_, err := conn.Write(frame)
	return err
}

func readFrame(conn net.Conn) (kind byte, tag int, payload []byte, err error) {
	var hdr [frameHeaderSize]byte
	if _, err = io.ReadFull(conn, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	size := binary.LittleEndian.Uint32(hdr[0:4])
	kind = hdr[4]
	tag = int(binary.LittleEndian.Uint32(hdr[5:9]))
	if size > 1<<30 {
		return 0, 0, nil, fmt.Errorf("mpi: oversized frame (%d bytes)", size)
	}
	// The header is the peer's claim, not bytes in hand: allocate up to
	// frameChunk ahead of the payload and grow past it only as the payload
	// arrives, so a peer that claims 1 GiB and hangs up costs one chunk.
	n := int(size)
	payload = make([]byte, min(n, frameChunk))
	for have := 0; ; {
		if _, err = io.ReadFull(conn, payload[have:]); err != nil {
			return 0, 0, nil, err
		}
		if have = len(payload); have == n {
			return kind, tag, payload, nil
		}
		next := min(n, 2*have)
		payload = slices.Grow(payload, next-have)[:next]
	}
}

// frameChunk bounds what readFrame allocates before payload bytes arrive.
// Every frame the benchmark workloads send is far below it and takes one
// allocation.
const frameChunk = 1 << 20

// Rendezvous.

// ServeRendezvous accepts size registrations on ln, then sends every
// registrant the full rank -> address table and closes. The launcher runs
// this next to the processes it spawns; a manually started world sets
// TCPConfig.HostCoordinator so rank 0 serves it instead.
func ServeRendezvous(ln net.Listener, size int) error {
	conns := make([]net.Conn, size)
	addrs := make([]string, size)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for have := 0; have < size; have++ {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("mpi: rendezvous accept: %w", err)
		}
		kind, rank, payload, err := readFrame(conn)
		if err != nil || kind != kindHello {
			conn.Close()
			return fmt.Errorf("mpi: rendezvous registration: kind 0x%02x, %v", kind, err)
		}
		if rank < 0 || rank >= size || conns[rank] != nil {
			conn.Close()
			return fmt.Errorf("mpi: rendezvous: bad or duplicate rank %d", rank)
		}
		addr := string(payload)
		if strings.HasPrefix(addr, ":") {
			// No explicit advertise address: derive the host from where
			// the registration came from.
			host, _, err := net.SplitHostPort(conn.RemoteAddr().String())
			if err != nil {
				conn.Close()
				return fmt.Errorf("mpi: rendezvous remote addr: %w", err)
			}
			addr = net.JoinHostPort(host, addr[1:])
		}
		conns[rank], addrs[rank] = conn, addr
	}
	var table []byte
	for _, a := range addrs {
		table = binary.LittleEndian.AppendUint32(table, uint32(len(a)))
		table = append(table, a...)
	}
	for rank, conn := range conns {
		if err := writeFrame(conn, kindHello, rank, table); err != nil {
			return fmt.Errorf("mpi: rendezvous reply to rank %d: %w", rank, err)
		}
	}
	return nil
}

// rendezvous registers with the coordinator and returns the address table.
func rendezvous(cfg TCPConfig, listenPort int, deadline time.Time) ([]string, error) {
	adv := cfg.Advertise
	if adv == "" {
		adv = fmt.Sprintf(":%d", listenPort)
	}
	conn, err := dialRetry(cfg.Coordinator, deadline)
	if err != nil {
		return nil, fmt.Errorf("mpi: rendezvous with %s: %w", cfg.Coordinator, err)
	}
	defer conn.Close()
	if err := writeFrame(conn, kindHello, cfg.Rank, []byte(adv)); err != nil {
		return nil, fmt.Errorf("mpi: rendezvous register: %w", err)
	}
	conn.SetReadDeadline(deadline)
	kind, _, payload, err := readFrame(conn)
	if err != nil || kind != kindHello {
		return nil, fmt.Errorf("mpi: rendezvous table: kind 0x%02x, %v", kind, err)
	}
	table := make([]string, 0, cfg.Size)
	for off := 0; off < len(payload); {
		if off+4 > len(payload) {
			return nil, errors.New("mpi: truncated rendezvous table")
		}
		n := int(binary.LittleEndian.Uint32(payload[off:]))
		off += 4
		if off+n > len(payload) {
			return nil, errors.New("mpi: truncated rendezvous table")
		}
		table = append(table, string(payload[off:off+n]))
		off += n
	}
	if len(table) != cfg.Size {
		return nil, fmt.Errorf("mpi: rendezvous table has %d entries, want %d", len(table), cfg.Size)
	}
	return table, nil
}

// dialRetry dials addr until it succeeds or the deadline passes (peers
// and the coordinator may not be listening yet during startup).
func dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	var lastErr error
	for {
		timeout := time.Until(deadline)
		if timeout <= 0 {
			if lastErr == nil {
				lastErr = errors.New("deadline exceeded")
			}
			return nil, fmt.Errorf("mpi: dialing %s: %w", addr, lastErr)
		}
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		time.Sleep(50 * time.Millisecond)
	}
}
