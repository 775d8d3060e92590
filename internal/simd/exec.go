package simd

import (
	"fmt"
	"math/bits"

	"msc/internal/bitset"
	"msc/internal/ir"
)

// execBody runs every slot of a meta state. Guards test the pc latched
// at meta-state entry; pc updates land in npc, marked in the dirty
// mask, and commit afterwards, so a PE can never fall through into
// another MIMD state's code within the same meta state. The occupancy
// masks reflect committed pcs for the whole body — they ARE the latch —
// which is what lets every slot's enable set be a word OR of its
// guard's occupied member states.
func (m *vm) execBody(mc *MetaCode) error {
	live := m.live
	st := &m.res.MetaStats[mc.ID]
	members := m.gm[mc.ID]
	for si := range mc.Slots {
		s := &mc.Slots[si]
		cost := int64(s.Cost())
		m.res.Time += cost
		m.res.BodyCycles += cost
		m.res.SlotExecs++
		st.Cycles += cost
		st.BodyCycles += cost
		st.LivePECycles += cost * live
		// Only this coordinator loop ever calls prof.Add — chunk workers
		// touch per-chunk scratch, never the profiler — so the profiler's
		// single-writer contract survives Workers > 1 untouched.
		if m.prof != nil {
			m.prof.Add(mc.ID, s.Block, s.Pos, cost)
		}

		e, en := m.enable(members[si])
		m.res.EnabledCycles += cost * int64(en)
		m.res.LiveIdleCycles += cost * (live - int64(en))
		st.EnabledPECycles += cost * int64(en)
		m.res.PEHist[PEHistIndex(m.n, en)] += cost
		if en == 0 {
			continue
		}
		if err := m.execSlot(s, e); err != nil {
			return err
		}
	}
	return m.commit()
}

// enable returns the slot's enable mask and census: the union of the
// occupancy masks of the guard's occupied member states. Since every
// live PE occupies exactly one MIMD state the masks are disjoint and
// the census is a sum of occupancy counts — no popcount, and a slot
// whose members are all empty is skipped without touching any mask.
// Single-member guards alias the occupancy mask directly (slots never
// mutate occupancy; only commit does).
func (m *vm) enable(members []int) (bitset.Mask, int) {
	en := int64(0)
	first, occupied := -1, 0
	for _, s := range members {
		if m.occCnt[s] == 0 {
			continue
		}
		en += m.occCnt[s]
		if first < 0 {
			first = s
		}
		occupied++
	}
	if occupied == 0 {
		return nil, 0
	}
	if occupied == 1 {
		return m.occ[first], int(en)
	}
	e := m.enab
	e.CopyFrom(m.occ[first])
	for _, s := range members {
		if s != first && m.occCnt[s] > 0 {
			e.OrWith(m.occ[s])
		}
	}
	return e, int(en)
}

// execSlot executes one slot over the enable mask e. Chunk-local work
// (own-PE stacks, own-PE memory, npc writes — chunks are word-aligned,
// so dirty/npc words are never shared) runs through forChunks; effects
// that cross chunks (spawn's free-PE claim, StMono's broadcast,
// StRemote's router writes) are serialized or buffered per chunk and
// replayed in chunk order so the outcome matches sequential ascending-
// PE execution exactly.
func (m *vm) execSlot(s *Slot, e bitset.Mask) error {
	switch s.Kind {
	case SlotExec:
		return m.execInstr(s.Instr, e)
	case SlotSetPC:
		to := int32(s.To)
		return m.forChunks(func(_ *wscratch, c int) error {
			w0, w1 := m.chunkWords(c)
			for w := w0; w < w1; w++ {
				ew := e[w]
				if ew == 0 {
					continue
				}
				m.dirty[w] |= ew
				base := w << 6
				for ew != 0 {
					b := bits.TrailingZeros64(ew)
					ew &= ew - 1
					m.npcs[base+b] = to
				}
			}
			return nil
		})
	case SlotJumpF:
		to, fto := int32(s.To), int32(s.FTo)
		return m.forChunks(func(_ *wscratch, c int) error {
			w0, w1 := m.chunkWords(c)
			p0, tw := m.chunkSpan(c)
			st := m.stk[c]
			for w := w0; w < w1; w++ {
				ew := e[w]
				if ew == 0 {
					continue
				}
				m.dirty[w] |= ew
				base := w << 6
				for ew != 0 {
					b := bits.TrailingZeros64(ew)
					ew &= ew - 1
					pe := base + b
					l := m.slens[pe] - 1
					if l < 0 {
						return underflow(pe)
					}
					m.slens[pe] = l
					cond := st[int(l)*tw+pe-p0]
					if ir.Truth(cond) {
						m.npcs[pe] = to
					} else {
						m.npcs[pe] = fto
					}
				}
			}
			return nil
		})
	case SlotEnd:
		return m.forChunks(func(_ *wscratch, c int) error {
			w0, w1 := m.chunkWords(c)
			for w := w0; w < w1; w++ {
				ew := e[w]
				if ew == 0 {
					continue
				}
				m.dirty[w] |= ew
				base := w << 6
				for ew != 0 {
					b := bits.TrailingZeros64(ew)
					ew &= ew - 1
					m.npcs[base+b] = PCDone
				}
			}
			return nil
		})
	case SlotHalt:
		return m.forChunks(func(_ *wscratch, c int) error {
			w0, w1 := m.chunkWords(c)
			for w := w0; w < w1; w++ {
				ew := e[w]
				if ew == 0 {
					continue
				}
				m.dirty[w] |= ew
				base := w << 6
				for ew != 0 {
					b := bits.TrailingZeros64(ew)
					ew &= ew - 1
					pe := base + b
					m.npcs[pe] = PCIdle
					m.slens[pe] = 0
					m.rlens[pe] = 0
				}
			}
			return nil
		})
	case SlotRetBr:
		return m.forChunks(func(_ *wscratch, c int) error {
			w0, w1 := m.chunkWords(c)
			p0, tw := m.chunkSpan(c)
			rt := m.ret[c]
			for w := w0; w < w1; w++ {
				ew := e[w]
				if ew == 0 {
					continue
				}
				m.dirty[w] |= ew
				base := w << 6
				for ew != 0 {
					b := bits.TrailingZeros64(ew)
					ew &= ew - 1
					pe := base + b
					l := m.rlens[pe] - 1
					if l < 0 {
						return fmt.Errorf("PE %d return with empty return stack", pe)
					}
					m.rlens[pe] = l
					m.npcs[pe] = rt[int(l)*tw+pe-p0]
				}
			}
			return nil
		})
	case SlotSpawn:
		// Spawn claims free PEs in ascending order across the whole
		// machine — inherently serial, so the coordinator runs it alone.
		// The free cursor makes each claim O(words) worst case and O(1)
		// amortized (see claimFree).
		to, childTo := int32(s.To), int32(s.ChildTo)
		for w := 0; w < m.nw; w++ {
			ew := e[w]
			if ew == 0 {
				continue
			}
			base := w << 6
			for ew != 0 {
				b := bits.TrailingZeros64(ew)
				ew &= ew - 1
				parent := base + b
				child := m.claimFree()
				if child < 0 {
					return fmt.Errorf("spawn with no free processor (width %d)", m.n)
				}
				m.npcs[child] = childTo
				m.dirty.Set(child)
				m.npcs[parent] = to
				m.dirty.Set(parent)
			}
		}
		return nil
	}
	return nil
}

// claimFree returns the lowest free PE (committed idle, not yet claimed
// or retargeted this body) and marks nothing — the caller writes its
// npc and dirty bit, which removes it from the free set. The cursor
// invariant is that no word below freeHint holds a free bit; commit
// lowers the cursor when a halt parks a PE below it.
func (m *vm) claimFree() int {
	for w := m.freeHint; w < m.nw; w++ {
		if f := m.idle[w] &^ m.dirty[w]; f != 0 {
			m.freeHint = w
			return w<<6 + bits.TrailingZeros64(f)
		}
	}
	m.freeHint = m.nw
	return -1
}

// commit applies the body's latched pc updates: every dirty PE moves
// occ/idle/done mask bits from its old pc to its new one, chunk-local
// (words are not shared between chunks), with occupancy-count and
// live-count deltas accumulated per worker and reduced by the
// coordinator — the deltas commute, so worker interleaving cannot
// affect the result.
func (m *vm) commit() error {
	if err := m.forChunks(m.commitChunk); err != nil {
		return err
	}
	for _, ws := range m.wss {
		if ws.cntTouched {
			for s, d := range ws.cntDelta {
				if d != 0 {
					m.occCnt[s] += d
					ws.cntDelta[s] = 0
				}
			}
			ws.cntTouched = false
		}
		m.live += ws.liveDelta
		ws.liveDelta = 0
		if ws.minIdleW < m.freeHint {
			m.freeHint = ws.minIdleW
		}
		ws.minIdleW = int(^uint(0) >> 1)
	}
	return nil
}

func (m *vm) commitChunk(ws *wscratch, c int) error {
	w0, w1 := m.chunkWords(c)
	for w := w0; w < w1; w++ {
		dw := m.dirty[w]
		if dw == 0 {
			continue
		}
		m.dirty[w] = 0
		base := w << 6
		for dw != 0 {
			b := bits.TrailingZeros64(dw)
			dw &= dw - 1
			pe := base + b
			old, nv := int(m.pcs[pe]), int(m.npcs[pe])
			if old == nv {
				continue
			}
			bit := uint64(1) << uint(b)
			switch {
			case old >= 0:
				m.occ[old][w] &^= bit
				ws.cntDelta[old]--
				ws.cntTouched = true
				ws.liveDelta--
			case old == PCIdle:
				m.idle[w] &^= bit
			}
			switch {
			case nv >= 0:
				m.occ[nv][w] |= bit
				ws.cntDelta[nv]++
				ws.cntTouched = true
				ws.liveDelta++
			case nv == PCIdle:
				m.idle[w] |= bit
				if w < ws.minIdleW {
					ws.minIdleW = w
				}
			default: // PCDone
				m.doneM[w] |= bit
			}
			m.pcs[pe] = int32(nv)
		}
	}
	return nil
}

func (m *vm) slotAddr(addr int64) (int, error) {
	if addr < 0 || addr >= int64(m.wpp) {
		return 0, fmt.Errorf("memory address %d out of range [0,%d)", addr, m.wpp)
	}
	return int(addr), nil
}

func underflow(pe int) error {
	return fmt.Errorf("PE %d evaluation stack underflow", pe)
}

// execInstr runs one instruction on every enabled PE, ascending within
// each chunk. Ops that touch only a PE's own stack and memory row are
// chunk-parallel as-is; ops with cross-PE writes (StMono, StRemote)
// split into a chunk-parallel pop phase and a chunk-ordered replay so
// write-conflict outcomes (highest PE wins) match sequential execution.
//
// Every case carries its own bit loop with the stack manipulation
// fused into it. The chunk's tile, origin and row width are loaded once
// per chunk; per PE, a stack entry is one multiply-add into the tile
// and a push is one length compare before the store. A binary op is
// one depth load, an in-place store over the second operand and one
// depth store: no per-PE function call and no slice header. This is
// the hottest code in the repo; measure before restructuring.
// Underflow checks collapse to one front check per PE, which reports
// the same error sequential pop-by-pop execution would.
func (m *vm) execInstr(in ir.Instr, e bitset.Mask) error {
	switch in.Op {
	case ir.Nop:
		return nil
	case ir.PushC:
		v := ir.Word(in.Imm)
		return m.forChunks(func(_ *wscratch, c int) error {
			w0, w1 := m.chunkWords(c)
			p0, tw := m.chunkSpan(c)
			slens, st := m.slens, m.stk[c]
			for w := w0; w < w1; w++ {
				ew := e[w]
				base := w << 6
				for ew != 0 {
					b := bits.TrailingZeros64(ew)
					ew &= ew - 1
					pe := base + b
					l := slens[pe]
					i := int(l)*tw + pe - p0
					if i >= len(st) {
						st = growTile(st, tw)
						m.stk[c] = st
					}
					st[i] = v
					slens[pe] = l + 1
				}
			}
			return nil
		})
	case ir.Dup:
		return m.forChunks(func(_ *wscratch, c int) error {
			w0, w1 := m.chunkWords(c)
			p0, tw := m.chunkSpan(c)
			st := m.stk[c]
			for w := w0; w < w1; w++ {
				ew := e[w]
				base := w << 6
				for ew != 0 {
					b := bits.TrailingZeros64(ew)
					ew &= ew - 1
					pe := base + b
					l := m.slens[pe]
					if l == 0 {
						return underflow(pe)
					}
					i := int(l)*tw + pe - p0
					if i >= len(st) {
						st = growTile(st, tw)
						m.stk[c] = st
					}
					st[i] = st[i-tw]
					m.slens[pe] = l + 1
				}
			}
			return nil
		})
	case ir.Pop:
		k := int32(in.Imm)
		return m.forChunks(func(_ *wscratch, c int) error {
			w0, w1 := m.chunkWords(c)
			for w := w0; w < w1; w++ {
				ew := e[w]
				base := w << 6
				for ew != 0 {
					b := bits.TrailingZeros64(ew)
					ew &= ew - 1
					pe := base + b
					l := m.slens[pe]
					if l < k {
						return underflow(pe)
					}
					m.slens[pe] = l - k
				}
			}
			return nil
		})
	case ir.LdLocal, ir.LdMono:
		a, err := m.slotAddr(in.Imm)
		if err != nil {
			return err
		}
		return m.forChunks(func(_ *wscratch, c int) error {
			w0, w1 := m.chunkWords(c)
			p0, tw := m.chunkSpan(c)
			slens, st, mem, wpp := m.slens, m.stk[c], m.mem, m.wpp
			for w := w0; w < w1; w++ {
				ew := e[w]
				base := w << 6
				for ew != 0 {
					b := bits.TrailingZeros64(ew)
					ew &= ew - 1
					pe := base + b
					l := slens[pe]
					i := int(l)*tw + pe - p0
					if i >= len(st) {
						st = growTile(st, tw)
						m.stk[c] = st
					}
					st[i] = mem[pe*wpp+a]
					slens[pe] = l + 1
				}
			}
			return nil
		})
	case ir.StLocal:
		a, err := m.slotAddr(in.Imm)
		if err != nil {
			return err
		}
		return m.forChunks(func(_ *wscratch, c int) error {
			w0, w1 := m.chunkWords(c)
			p0, tw := m.chunkSpan(c)
			slens, st, mem, wpp := m.slens, m.stk[c], m.mem, m.wpp
			for w := w0; w < w1; w++ {
				ew := e[w]
				base := w << 6
				for ew != 0 {
					b := bits.TrailingZeros64(ew)
					ew &= ew - 1
					pe := base + b
					l := slens[pe] - 1
					if l < 0 {
						return underflow(pe)
					}
					mem[pe*wpp+a] = st[int(l)*tw+pe-p0]
					slens[pe] = l
				}
			}
			return nil
		})
	case ir.StMono:
		return m.stMono(in, e)
	case ir.LdIndex:
		imm := in.Imm
		return m.forChunks(func(_ *wscratch, c int) error {
			w0, w1 := m.chunkWords(c)
			p0, tw := m.chunkSpan(c)
			st := m.stk[c]
			for w := w0; w < w1; w++ {
				ew := e[w]
				base := w << 6
				for ew != 0 {
					b := bits.TrailingZeros64(ew)
					ew &= ew - 1
					pe := base + b
					l := m.slens[pe]
					if l == 0 {
						return underflow(pe)
					}
					i := int(l-1)*tw + pe - p0
					a, err := m.slotAddr(imm + int64(st[i]))
					if err != nil {
						return err
					}
					st[i] = m.mem[pe*m.wpp+a] // in place: pop idx, push val
				}
			}
			return nil
		})
	case ir.StIndex:
		imm := in.Imm
		return m.forChunks(func(_ *wscratch, c int) error {
			w0, w1 := m.chunkWords(c)
			p0, tw := m.chunkSpan(c)
			st := m.stk[c]
			for w := w0; w < w1; w++ {
				ew := e[w]
				base := w << 6
				for ew != 0 {
					b := bits.TrailingZeros64(ew)
					ew &= ew - 1
					pe := base + b
					l := m.slens[pe]
					if l < 2 {
						return underflow(pe)
					}
					i := int(l-1)*tw + pe - p0
					v, idx := st[i], st[i-tw]
					a, err := m.slotAddr(imm + int64(idx))
					if err != nil {
						return err
					}
					m.mem[pe*m.wpp+a] = v
					m.slens[pe] = l - 2
				}
			}
			return nil
		})
	case ir.LdRemote:
		a, err := m.slotAddr(in.Imm)
		if err != nil {
			return err
		}
		// Router reads are simultaneous, and no PE's memory changes
		// during this slot, so replacing the target with the fetched
		// value in place is equivalent to the reference's gather-then-
		// push.
		return m.forChunks(func(_ *wscratch, c int) error {
			w0, w1 := m.chunkWords(c)
			p0, tw := m.chunkSpan(c)
			st := m.stk[c]
			for w := w0; w < w1; w++ {
				ew := e[w]
				base := w << 6
				for ew != 0 {
					b := bits.TrailingZeros64(ew)
					ew &= ew - 1
					pe := base + b
					l := m.slens[pe]
					if l == 0 {
						return underflow(pe)
					}
					i := int(l-1)*tw + pe - p0
					st[i] = m.mem[peIndex(st[i], m.n)*m.wpp+a]
				}
			}
			return nil
		})
	case ir.StRemote:
		return m.stRemote(in, e)
	case ir.IProc, ir.NProc:
		// IProc pushes the PE's own index, NProc the machine width.
		iproc, nproc := in.Op == ir.IProc, ir.Word(m.n)
		return m.forChunks(func(_ *wscratch, c int) error {
			w0, w1 := m.chunkWords(c)
			p0, tw := m.chunkSpan(c)
			st := m.stk[c]
			for w := w0; w < w1; w++ {
				ew := e[w]
				base := w << 6
				for ew != 0 {
					b := bits.TrailingZeros64(ew)
					ew &= ew - 1
					pe := base + b
					l := m.slens[pe]
					i := int(l)*tw + pe - p0
					if i >= len(st) {
						st = growTile(st, tw)
						m.stk[c] = st
					}
					v := nproc
					if iproc {
						v = ir.Word(pe)
					}
					st[i] = v
					m.slens[pe] = l + 1
				}
			}
			return nil
		})
	case ir.PushRet:
		r := int32(in.Imm)
		return m.forChunks(func(_ *wscratch, c int) error {
			w0, w1 := m.chunkWords(c)
			p0, tw := m.chunkSpan(c)
			rt := m.ret[c]
			for w := w0; w < w1; w++ {
				ew := e[w]
				base := w << 6
				for ew != 0 {
					b := bits.TrailingZeros64(ew)
					ew &= ew - 1
					pe := base + b
					l := m.rlens[pe]
					i := int(l)*tw + pe - p0
					if i >= len(rt) {
						rt = growTile(rt, tw)
						m.ret[c] = rt
					}
					rt[i] = r
					m.rlens[pe] = l + 1
				}
			}
			return nil
		})
	default:
		op := in.Op
		switch {
		case ir.IsBinary(op):
			return m.forChunks(func(_ *wscratch, c int) error {
				w0, w1 := m.chunkWords(c)
				p0, tw := m.chunkSpan(c)
				slens, st := m.slens, m.stk[c]
				for w := w0; w < w1; w++ {
					ew := e[w]
					base := w << 6
					for ew != 0 {
						b := bits.TrailingZeros64(ew)
						ew &= ew - 1
						pe := base + b
						l := slens[pe]
						if l < 2 {
							return underflow(pe)
						}
						i := int(l-2)*tw + pe - p0
						st[i] = ir.EvalBinary(op, st[i], st[i+tw])
						slens[pe] = l - 1
					}
				}
				return nil
			})
		case ir.IsUnary(op):
			return m.forChunks(func(_ *wscratch, c int) error {
				w0, w1 := m.chunkWords(c)
				p0, tw := m.chunkSpan(c)
				st := m.stk[c]
				for w := w0; w < w1; w++ {
					ew := e[w]
					base := w << 6
					for ew != 0 {
						b := bits.TrailingZeros64(ew)
						ew &= ew - 1
						pe := base + b
						l := m.slens[pe]
						if l == 0 {
							return underflow(pe)
						}
						i := int(l-1)*tw + pe - p0
						st[i] = ir.EvalUnary(op, st[i])
					}
				}
				return nil
			})
		}
		return fmt.Errorf("unknown opcode %v", in.Op)
	}
}

// stMono pops on every enabled PE (chunk-parallel, recording each
// chunk's last popped value), reduces chunk-ascending so the highest
// enabled PE's value wins exactly as in sequential execution, then
// broadcasts it to every PE's memory row chunk-parallel.
func (m *vm) stMono(in ir.Instr, e bitset.Mask) error {
	a, err := m.slotAddr(in.Imm)
	if err != nil {
		return err
	}
	err = m.forChunks(func(_ *wscratch, c int) error {
		w0, w1 := m.chunkWords(c)
		p0, tw := m.chunkSpan(c)
		st := m.stk[c]
		for w := w0; w < w1; w++ {
			ew := e[w]
			base := w << 6
			for ew != 0 {
				b := bits.TrailingZeros64(ew)
				ew &= ew - 1
				pe := base + b
				l := m.slens[pe] - 1
				if l < 0 {
					return underflow(pe)
				}
				m.monoVal[c] = st[int(l)*tw+pe-p0]
				m.monoAny[c] = true
				m.slens[pe] = l
			}
		}
		return nil
	})
	var val ir.Word
	for c := 0; c < m.nChunks; c++ {
		if m.monoAny[c] {
			val = m.monoVal[c] // highest chunk with an enabled PE wins
			m.monoAny[c] = false
		}
	}
	if err != nil {
		return err
	}
	return m.forChunks(func(_ *wscratch, c int) error {
		p0, tw := m.chunkSpan(c)
		for pe := p0; pe < p0+tw; pe++ {
			m.mem[pe*m.wpp+a] = val
		}
		return nil
	})
}

// stRemote pops (value, target) on every enabled PE chunk-parallel,
// buffering the router writes per chunk, then replays them in chunk
// order on the coordinator — ascending-PE write order, so conflicting
// stores resolve exactly as in sequential execution.
func (m *vm) stRemote(in ir.Instr, e bitset.Mask) error {
	a, err := m.slotAddr(in.Imm)
	if err != nil {
		return err
	}
	err = m.forChunks(func(_ *wscratch, c int) error {
		buf := m.remBuf[c][:0]
		defer func() { m.remBuf[c] = buf }()
		w0, w1 := m.chunkWords(c)
		p0, tw := m.chunkSpan(c)
		st := m.stk[c]
		for w := w0; w < w1; w++ {
			ew := e[w]
			base := w << 6
			for ew != 0 {
				b := bits.TrailingZeros64(ew)
				ew &= ew - 1
				pe := base + b
				l := m.slens[pe]
				if l < 2 {
					return underflow(pe)
				}
				i := int(l-1)*tw + pe - p0
				v, p := st[i], st[i-tw]
				m.slens[pe] = l - 2
				buf = append(buf, remWrite{idx: peIndex(p, m.n)*m.wpp + a, val: v})
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for c := 0; c < m.nChunks; c++ {
		for _, rw := range m.remBuf[c] {
			m.mem[rw.idx] = rw.val
		}
		m.remBuf[c] = m.remBuf[c][:0]
	}
	return nil
}
