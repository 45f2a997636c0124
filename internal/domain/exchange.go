package domain

import (
	"fmt"
	"time"

	"deepmd-go/internal/mpi"
	"deepmd-go/internal/neighbor"
)

// Message tags for the exchange protocols.
const (
	tagMigrate = 100
	tagBorder  = 200 // +stage offset
	tagForward = 300 // +stage offset
	tagReverse = 400 // +stage offset
	tagThermo  = 500
	tagGather  = 600 // +0 gid, +1 force, +2 pos
	tagStats   = 700
)

// rankState is one rank's atom storage: locals in [0, nloc), ghosts in
// [nloc, len(typ)).
type rankState struct {
	comm  *mpi.Comm
	grid  [3]int
	coord [3]int
	lo    [3]float64
	hi    [3]float64
	gbox  neighbor.Box
	cut   float64 // ghost width: rcut + skin

	pos  []float64
	vel  []float64
	typ  []int
	gid  []int64
	nloc int

	plan []stagePlan

	// Comm/compute overlap accounting for the per-step exchange: commWait
	// is time blocked in Wait, commWindow the whole forward/reverse wall
	// time. 1 - wait/window is the fraction of the exchange window in
	// which packing, copying and accumulation proceeded while messages
	// were in flight (reported per rank by the scaling experiment).
	commWait   time.Duration
	commWindow time.Duration
}

// stagePlan records one direction of one staged border exchange so the
// same ghosts can be refreshed every step and their forces returned.
type stagePlan struct {
	dim, dir          int
	sendTo, recvFrom  int
	sendIdx           []int32
	shift             float64
	recvBase, recvCnt int

	// Reusable per-step send buffers, hoisted here so the steady-state
	// forward/reverse path is allocation-free (they used to be allocated
	// per stage per step). The `any` values are the same slices boxed
	// once at plan-build time — converting a slice to an interface
	// allocates, so the pre-boxed headers are sent instead and the
	// fixed-length slices are refilled in place each step.
	fwdSend []float64
	fwdBox  any
	revSend []float64
	revBox  any
}

// nall returns locals + ghosts.
func (rs *rankState) nall() int { return len(rs.typ) }

// dropGhosts truncates the arrays to locals only.
func (rs *rankState) dropGhosts() {
	rs.pos = rs.pos[:3*rs.nloc]
	rs.typ = rs.typ[:rs.nloc]
	rs.gid = rs.gid[:rs.nloc]
	rs.plan = rs.plan[:0]
}

// migrate reassigns atoms that left the owned sub-box. Positions must be
// wrapped into the global box beforehand.
func (rs *rankState) migrate() error {
	p := rs.comm.Size()
	if p == 1 {
		return nil
	}
	out := make([]atomBundle, p)
	keepPos := rs.pos[:0]
	keepVel := rs.vel[:0]
	keepTyp := rs.typ[:0]
	keepGid := rs.gid[:0]
	for i := 0; i < rs.nloc; i++ {
		pt := [3]float64{rs.pos[3*i], rs.pos[3*i+1], rs.pos[3*i+2]}
		owner := ownerOf(pt, rs.grid, rs.gbox.L)
		if owner == rs.comm.Rank() {
			keepPos = append(keepPos, rs.pos[3*i:3*i+3]...)
			keepVel = append(keepVel, rs.vel[3*i:3*i+3]...)
			keepTyp = append(keepTyp, rs.typ[i])
			keepGid = append(keepGid, rs.gid[i])
			continue
		}
		b := &out[owner]
		b.Pos = append(b.Pos, rs.pos[3*i:3*i+3]...)
		b.Vel = append(b.Vel, rs.vel[3*i:3*i+3]...)
		b.Typ = append(b.Typ, rs.typ[i])
		b.Gid = append(b.Gid, rs.gid[i])
	}
	rs.pos, rs.vel, rs.typ, rs.gid = keepPos, keepVel, keepTyp, keepGid

	// All-to-all exchange (deterministic order).
	me := rs.comm.Rank()
	for dst := 0; dst < p; dst++ {
		if dst != me {
			rs.comm.Send(dst, tagMigrate, encodeBundle(out[dst]))
		}
	}
	for src := 0; src < p; src++ {
		if src == me {
			continue
		}
		b, err := decodeBundle(rs.comm.Recv(src, tagMigrate).([]byte))
		if err != nil {
			return fmt.Errorf("migration from rank %d: %w", src, err)
		}
		rs.pos = append(rs.pos, b.Pos...)
		rs.vel = append(rs.vel, b.Vel...)
		rs.typ = append(rs.typ, b.Typ...)
		rs.gid = append(rs.gid, b.Gid...)
	}
	rs.nloc = len(rs.typ)
	return nil
}

// borders performs the staged x -> y -> z ghost exchange, recording the
// plan for later forward/reverse communication. Ghosts accumulated in
// earlier stages are forwarded too, which is what populates edge and
// corner regions transitively.
func (rs *rankState) borders() error {
	rs.dropGhosts()
	for dim := 0; dim < 3; dim++ {
		// Candidates for this dimension: locals plus ghosts from earlier
		// dimensions. Ghosts received within this dimension must not be
		// re-sent (they would bounce back to their owners, or re-enter as
		// spurious duplicates in the self-exchange case).
		nBeforeDim := rs.nall()
		// Phase A: send low-side atoms to the left neighbor, receive the
		// right neighbor's low-side atoms (which sit just above my hi).
		// Phase B: mirror.
		for dir := 0; dir < 2; dir++ {
			var sendTo, recvFrom int
			var shiftSend float64
			cl := rs.coord
			if dir == 0 {
				cl[dim]--
				sendTo = rankOf(cl, rs.grid)
				cr := rs.coord
				cr[dim]++
				recvFrom = rankOf(cr, rs.grid)
				if rs.coord[dim] == 0 {
					shiftSend = rs.gbox.L[dim] // wrap to the high side
				}
			} else {
				cl[dim]++
				sendTo = rankOf(cl, rs.grid)
				cr := rs.coord
				cr[dim]--
				recvFrom = rankOf(cr, rs.grid)
				if rs.coord[dim] == rs.grid[dim]-1 {
					shiftSend = -rs.gbox.L[dim] // wrap to the low side
				}
			}

			// Select atoms within the ghost width of the boundary.
			var idx []int32
			for i := 0; i < nBeforeDim; i++ {
				x := rs.pos[3*i+dim]
				if dir == 0 && x < rs.lo[dim]+rs.cut {
					idx = append(idx, int32(i))
				}
				if dir == 1 && x >= rs.hi[dim]-rs.cut {
					idx = append(idx, int32(i))
				}
			}
			b := atomBundle{
				Pos: make([]float64, 0, 3*len(idx)),
				Typ: make([]int, 0, len(idx)),
				Gid: make([]int64, 0, len(idx)),
			}
			for _, i := range idx {
				x, y, z := rs.pos[3*i], rs.pos[3*i+1], rs.pos[3*i+2]
				switch dim {
				case 0:
					x += shiftSend
				case 1:
					y += shiftSend
				default:
					z += shiftSend
				}
				b.Pos = append(b.Pos, x, y, z)
				b.Typ = append(b.Typ, rs.typ[i])
				b.Gid = append(b.Gid, rs.gid[i])
			}

			tag := tagBorder + 2*dim + dir
			rs.comm.Send(sendTo, tag, encodeBundle(b))
			in, err := decodeBundle(rs.comm.Recv(recvFrom, tag).([]byte))
			if err != nil {
				return fmt.Errorf("border stage %d from rank %d: %w", 2*dim+dir, recvFrom, err)
			}

			base := rs.nall()
			rs.pos = append(rs.pos, in.Pos...)
			rs.typ = append(rs.typ, in.Typ...)
			rs.gid = append(rs.gid, in.Gid...)
			fwd := make([]float64, 3*len(idx))
			rev := make([]float64, 3*len(in.Typ))
			rs.plan = append(rs.plan, stagePlan{
				dim: dim, dir: dir,
				sendTo: sendTo, recvFrom: recvFrom,
				sendIdx: idx, shift: shiftSend,
				recvBase: base, recvCnt: len(in.Typ),
				fwdSend: fwd, fwdBox: any(fwd),
				revSend: rev, revBox: any(rev),
			})
		}
	}
	return nil
}

// packForward fills the stage's reusable send buffer with the current
// (shifted) positions of the atoms it exports. It runs twice per stage per
// step on the ghost-exchange hot path and must stay off the heap.
//
//dp:noalloc
func (rs *rankState) packForward(sp *stagePlan) {
	for k, i := range sp.sendIdx {
		x, y, z := rs.pos[3*i], rs.pos[3*i+1], rs.pos[3*i+2]
		switch sp.dim {
		case 0:
			x += sp.shift
		case 1:
			y += sp.shift
		default:
			z += sp.shift
		}
		sp.fwdSend[3*k], sp.fwdSend[3*k+1], sp.fwdSend[3*k+2] = x, y, z
	}
}

// forward refreshes ghost positions along the recorded plan (the per-step
// ghost-region communication of Sec. 5.4). The two directions of each
// dimension are independent, so both receives are posted and both sends
// packed before either Wait: the second direction's packing (and, on the
// wire transport, the frame encoding and socket IO) overlaps the first
// message's flight. Dimensions stay sequential — a later dimension
// forwards ghosts received in earlier ones. Waits complete in fixed stage
// order so the result is bit-identical to the synchronous exchange.
//
// The packing/copy side is allocation-free (packForward is //dp:noalloc
// and the receives land in place); the transport's per-message envelopes
// are the comm layer's business, so forward itself carries no mark.
func (rs *rankState) forward() {
	start := time.Now()
	for si := 0; si+1 < len(rs.plan); si += 2 {
		a, b := &rs.plan[si], &rs.plan[si+1]
		ra := rs.comm.Irecv(a.recvFrom, tagForward+si)
		rb := rs.comm.Irecv(b.recvFrom, tagForward+si+1)
		rs.packForward(a)
		rs.comm.Send(a.sendTo, tagForward+si, a.fwdBox)
		rs.packForward(b)
		rs.comm.Send(b.sendTo, tagForward+si+1, b.fwdBox)
		t := time.Now()
		in := ra.Wait().([]float64)
		rs.commWait += time.Since(t)
		copy(rs.pos[3*a.recvBase:3*(a.recvBase+a.recvCnt)], in)
		t = time.Now()
		in = rb.Wait().([]float64)
		rs.commWait += time.Since(t)
		copy(rs.pos[3*b.recvBase:3*(b.recvBase+b.recvCnt)], in)
	}
	rs.commWindow += time.Since(start)
}

// reverse returns ghost forces to their owners along the plan in reverse
// order, accumulating into the sender's force entries (which may
// themselves be ghosts of an earlier stage, cascading the contribution
// home). Like forward, the two directions of a dimension exchange
// concurrently; accumulation still happens in descending stage order (the
// two directions' ghost-force source regions are disjoint from both
// accumulation targets, so packing both before accumulating either reads
// the same values the synchronous exchange did — bit-identical results).
func (rs *rankState) reverse(force []float64) {
	start := time.Now()
	for si := len(rs.plan) - 1; si >= 1; si -= 2 {
		a, b := &rs.plan[si], &rs.plan[si-1]
		// Reverse direction: I received ghosts from recvFrom, so I return
		// their forces there; my own sent atoms' forces come back from
		// sendTo.
		ra := rs.comm.Irecv(a.sendTo, tagReverse+si)
		rb := rs.comm.Irecv(b.sendTo, tagReverse+si-1)
		copy(a.revSend, force[3*a.recvBase:3*(a.recvBase+a.recvCnt)])
		rs.comm.Send(a.recvFrom, tagReverse+si, a.revBox)
		copy(b.revSend, force[3*b.recvBase:3*(b.recvBase+b.recvCnt)])
		rs.comm.Send(b.recvFrom, tagReverse+si-1, b.revBox)
		t := time.Now()
		in := ra.Wait().([]float64)
		rs.commWait += time.Since(t)
		for k, i := range a.sendIdx {
			force[3*i] += in[3*k]
			force[3*i+1] += in[3*k+1]
			force[3*i+2] += in[3*k+2]
		}
		t = time.Now()
		in = rb.Wait().([]float64)
		rs.commWait += time.Since(t)
		for k, i := range b.sendIdx {
			force[3*i] += in[3*k]
			force[3*i+1] += in[3*k+1]
			force[3*i+2] += in[3*k+2]
		}
	}
	rs.commWindow += time.Since(start)
}

// ghostCount returns the current number of ghost atoms.
func (rs *rankState) ghostCount() int { return rs.nall() - rs.nloc }
