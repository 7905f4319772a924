package tcpsim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/stats"
	"repro/internal/units"
)

// Engine is a reusable TCP simulation engine. It holds every buffer the
// round loop needs — the pending queue, the active flows' state as dense
// structure-of-arrays in active order, and the per-round scratch vectors
// — so that repeated Run calls on workloads of similar size perform zero
// allocations in steady state (enforced by TestEngineSteadyStateAllocs).
//
// The engine produces results bit-identical to the original pointer-based
// implementation (see reference_test.go): flows are processed in stable
// arrival order, the active state is compacted in place preserving order
// (a swap-compact would reorder the per-flow RNG severity draws and
// change results), and every floating-point expression keeps the original
// evaluation order. The round loop clamps with the builtin min and max,
// which compile inline where math.Min is an assembly call on amd64. They
// return math.Min and math.Max's results for ±0, NaN and ±Inf except
// min(NaN, -Inf) and max(NaN, +Inf), which no run reaches: operands are
// non-negative and every max clamps against a finite 2·MSS. The
// reference keeps math.Min, so it stays an independent oracle
// (TestBuiltinMinMaxMatchMath, TestEngineMatchesReferenceRandom).
//
// An Engine is not safe for concurrent use. The *Result returned by Run
// aliases engine-owned storage and is valid only until the next Run or
// SoloClientFCT call on the same engine; callers that retain results
// across runs must copy what they need first. The package-level Run
// constructs a fresh engine per call and therefore has no such aliasing.
type Engine struct {
	// rng is the engine's only source of randomness, reseeded from
	// Config.Seed at the start of every Run, so a run is a pure function
	// of its config and specs; no simulator draws from global randomness.
	rng *rand.Rand

	// Pending queue, indexed by slot (stable-sorted by arrival): what a
	// flow needs before it starts and for its FlowResult.
	id      []int
	arrival []float64
	size    []float64 // original payload, bytes

	// Active-flow state, dense and in active order: index i is the i-th
	// active flow. activate appends, and the compaction after a round in
	// which flows finished moves every field together, so both per-round
	// passes walk these slices in step with no gather through a slot.
	slot       []int32   // pending slot, for the FlowResult
	remaining  []float64 // bytes not yet acknowledged
	cwnd       []float64 // congestion window, bytes
	ssthresh   []float64 // slow-start threshold, bytes
	stalledTo  []float64 // RTO: no transmission before this time
	wmaxSeg    []float64 // CUBIC: window at last loss, segments
	epochStart []float64 // CUBIC: time of last loss (-1: no epoch yet)
	kCubic     []float64 // CUBIC: time to regain wmax, seconds
	retrans    []int64

	// Sort scratch: spec indices, stable-ordered by arrival.
	order []int32

	// Per-round scratch by active index, reused every round.
	offered []float64
	lost    []float64
	weights []float64
	endT    []float64 // finish time of a flow that finished this round

	// Result storage, reused across runs.
	finished []FlowResult
	counters stats.LinkCounters
	res      Result

	soloSpecs []FlowSpec // scratch for SoloClientFCT
}

// NewEngine returns an engine ready for Run. Buffers grow on first use
// and are retained across runs.
func NewEngine() *Engine {
	return &Engine{rng: rand.New(rand.NewSource(0))}
}

// grow sizes every per-flow buffer for n flows, reusing capacity: the
// pending queue and the per-round scratch to length n, the active state
// to capacity n (Run empties it, activate appends). New capacity doubles
// at minimum so sweeps whose cells ascend in size (Table 2's concurrency
// axis) stop reallocating once, not per cell.
func (e *Engine) grow(n int) {
	if cap(e.arrival) < n {
		c := 2 * cap(e.arrival)
		if c < n {
			c = n
		}
		e.id = make([]int, n, c)
		e.arrival = make([]float64, n, c)
		e.size = make([]float64, n, c)
		e.slot = make([]int32, 0, c)
		e.remaining = make([]float64, 0, c)
		e.cwnd = make([]float64, 0, c)
		e.ssthresh = make([]float64, 0, c)
		e.stalledTo = make([]float64, 0, c)
		e.wmaxSeg = make([]float64, 0, c)
		e.epochStart = make([]float64, 0, c)
		e.kCubic = make([]float64, 0, c)
		e.retrans = make([]int64, 0, c)
		e.order = make([]int32, n, c)
		e.offered = make([]float64, n, c)
		e.lost = make([]float64, n, c)
		e.weights = make([]float64, n, c)
		e.endT = make([]float64, n, c)
		e.finished = make([]FlowResult, 0, c)
		return
	}
	e.id = e.id[:n]
	e.arrival = e.arrival[:n]
	e.size = e.size[:n]
	e.order = e.order[:n]
	e.offered = e.offered[:n]
	e.lost = e.lost[:n]
	e.weights = e.weights[:n]
	e.endT = e.endT[:n]
}

// keepActive truncates the active state to its first k flows.
func (e *Engine) keepActive(k int) {
	e.slot = e.slot[:k]
	e.remaining = e.remaining[:k]
	e.cwnd = e.cwnd[:k]
	e.ssthresh = e.ssthresh[:k]
	e.stalledTo = e.stalledTo[:k]
	e.wmaxSeg = e.wmaxSeg[:k]
	e.epochStart = e.epochStart[:k]
	e.kCubic = e.kCubic[:k]
	e.retrans = e.retrans[:k]
}

// activate moves flows whose arrival has passed from the pending queue
// (slots next..n-1, arrival-sorted) to the end of the active state;
// zero-size flows complete instantly at arrival. Returns the new pending
// cursor.
func (e *Engine) activate(now float64, next, n int, initCwnd, maxWin float64) int {
	for next < n && e.arrival[next] <= now {
		slot := int32(next)
		next++
		if e.size[slot] <= 0 {
			e.finished = append(e.finished, FlowResult{
				ID:      e.id[slot],
				Arrival: e.arrival[slot],
				End:     e.arrival[slot],
				Bytes:   e.size[slot],
			})
			continue
		}
		e.slot = append(e.slot, slot)
		e.remaining = append(e.remaining, e.size[slot])
		e.cwnd = append(e.cwnd, initCwnd)
		e.ssthresh = append(e.ssthresh, maxWin)
		e.stalledTo = append(e.stalledTo, 0)
		e.wmaxSeg = append(e.wmaxSeg, 0)
		e.epochStart = append(e.epochStart, -1)
		e.kCubic = append(e.kCubic, 0)
		e.retrans = append(e.retrans, 0)
	}
	return next
}

// CUBIC helpers on the i-th active flow (same formulas as RFC 8312
// shapes in the flow-struct engine).

func (e *Engine) cubicWindow(i int, tt, mss float64) float64 {
	d := tt - e.kCubic[i]
	return (cubicC*d*d*d + e.wmaxSeg[i]) * mss
}

func (e *Engine) cubicOnLoss(i int, now, mss float64) {
	e.wmaxSeg[i] = e.cwnd[i] / mss
	e.epochStart[i] = now
	e.kCubic[i] = math.Cbrt(e.wmaxSeg[i] * (1 - cubicBeta) / cubicC)
}

// Run simulates the flows over the shared bottleneck, reusing the
// engine's buffers. The returned Result is engine-owned: it is valid
// until the next Run/SoloClientFCT call on this engine.
func (e *Engine) Run(cfg Config, specs []FlowSpec) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, ErrNoFlows
	}
	for _, s := range specs {
		// !(Size >= 0) also rejects a NaN size, which would otherwise
		// turn the clock NaN and never finish.
		if !(s.Size >= 0) || math.IsInf(float64(s.Size), 1) || s.Arrival < 0 || math.IsNaN(s.Arrival) || math.IsInf(s.Arrival, 0) {
			return nil, fmt.Errorf("%w: id=%d arrival=%v size=%v", ErrBadFlowSpec, s.ID, s.Arrival, s.Size)
		}
	}

	e.rng.Seed(cfg.Seed)
	capacity := cfg.Capacity.ByteRate().BytesPerSecond() // bytes/s
	// Background cross-traffic shrinks the capacity available to the
	// foreground flows in every round.
	roundCap := capacity * (1 - cfg.CrossFraction)
	mss := cfg.MSS.Bytes()
	buffer := cfg.bufferBytes()
	baseRTT := cfg.BaseRTT.Seconds()
	rto := cfg.RTO.Seconds()
	maxWin := cfg.BDP() + buffer // no point growing cwnd beyond pipe+queue
	initCwnd := float64(cfg.InitCwndSegments) * mss
	cubic := cfg.CC == Cubic

	// Lay the flows out in stable arrival order (the pending queue).
	n := len(specs)
	e.grow(n)
	for i := range e.order {
		e.order[i] = int32(i)
	}
	// Stable, like the original sort.SliceStable: equal arrivals keep
	// spec order, which fixes both the RNG draw order and the finish
	// order of simultaneous flows. slices.SortStableFunc sorts in place
	// without allocating.
	slices.SortStableFunc(e.order, func(x, y int32) int {
		return cmp.Compare(specs[x].Arrival, specs[y].Arrival)
	})
	for k, idx := range e.order {
		s := specs[idx]
		e.id[k] = s.ID
		e.arrival[k] = s.Arrival
		e.size[k] = s.Size.Bytes()
	}

	// Reset reused result storage, keeping capacity.
	e.counters.Reset()
	e.res = Result{Counters: &e.counters}
	e.keepActive(0)
	e.finished = e.finished[:0]

	t := e.arrival[0]
	queue := 0.0       // backlog bytes in the bottleneck buffer
	servedBytes := 0.0 // cumulative for counters
	if err := e.counters.Record(t, 0); err != nil {
		return nil, err
	}
	nextPending := e.activate(t, 0, n, initCwnd, maxWin)

	for len(e.remaining) > 0 || nextPending < n {
		na := len(e.remaining)
		if t > horizon {
			return nil, fmt.Errorf("%w (t=%.1fs, %d flows still active)", ErrHorizon, t, na)
		}
		if na == 0 {
			// Idle gap: the residual queue drains through the link
			// (count it served), then jump to the next arrival.
			if queue > 0 {
				servedBytes += queue
				if err := e.counters.Record(t+queue/capacity, servedBytes); err != nil {
					return nil, err
				}
				queue = 0
			}
			t = e.arrival[nextPending]
			nextPending = e.activate(t, nextPending, n, initCwnd, maxWin)
			continue
		}

		// Round duration: base RTT plus the queueing delay data currently
		// ahead of this round's packets experiences.
		d := baseRTT + queue/roundCap

		// Injections this round (offered/lost are per-active-index scratch;
		// stale entries from larger prior rounds are never read). The
		// active state is resliced into locals of one length, so the
		// passes below keep the slice headers in registers and carry no
		// bounds checks.
		remaining := e.remaining[:na]
		cwnd := e.cwnd[:na]
		ssthresh := e.ssthresh[:na]
		stalledTo := e.stalledTo[:na]
		epochStart := e.epochStart[:na]
		wmaxSeg := e.wmaxSeg[:na]
		offered := e.offered[:na]
		lost := e.lost[:na]
		weights := e.weights[:na]
		total := 0.0
		for i := range offered {
			lost[i] = 0
			if t < stalledTo[i] {
				offered[i] = 0 // RTO stall: nothing sent this round
				continue
			}
			w := min(cwnd[i], remaining[i])
			offered[i] = w
			total += w
		}

		// Link service and queue evolution.
		drain := roundCap * d
		backlog := queue + total
		served := min(backlog, drain)
		newQueue := backlog - served
		dropped := 0.0
		if newQueue > buffer {
			dropped = newQueue - buffer
			newQueue = buffer
		}

		// Allocate drops across flows proportionally to injections, with
		// randomized severity so recoveries desynchronize (this is what
		// grows the measured long tail).
		if dropped > 0 && total > 0 {
			wsum := 0.0
			for i := range offered {
				if offered[i] <= 0 {
					weights[i] = 0
					continue
				}
				w := 0.5 + e.rng.Float64() // severity multiplier in [0.5, 1.5)
				weights[i] = w * offered[i]
				wsum += weights[i]
			}
			for i := range offered {
				if wsum <= 0 {
					break
				}
				loss := dropped * weights[i] / wsum
				if loss > offered[i] {
					loss = offered[i]
				}
				lost[i] = loss
			}
		}

		// Apply per-flow outcomes.
		finishing := false
		for i := range offered {
			if offered[i] <= 0 {
				continue
			}
			accepted := offered[i] - lost[i]
			remaining[i] -= accepted
			if lost[i] > 0 {
				e.retrans[i] += int64(math.Ceil(lost[i] / mss))
				lossRatio := lost[i] / offered[i]
				if lossRatio > 0.95 {
					// Whole window lost: retransmission timeout.
					if cubic {
						e.cubicOnLoss(i, t+d+rto, mss)
					}
					ssthresh[i] = max(cwnd[i]/2, 2*mss)
					cwnd[i] = mss
					stalledTo[i] = t + d + rto
				} else {
					// Fast recovery: multiplicative decrease.
					if cubic {
						e.cubicOnLoss(i, t+d, mss)
						ssthresh[i] = max(cwnd[i]*cubicBeta, 2*mss)
					} else { // Reno
						ssthresh[i] = max(cwnd[i]/2, 2*mss)
					}
					cwnd[i] = ssthresh[i]
				}
			} else {
				// Window growth.
				switch {
				case cwnd[i] < ssthresh[i]:
					cwnd[i] = min(cwnd[i]*2, maxWin) // slow start
				case cubic:
					if epochStart[i] < 0 {
						// Entering congestion avoidance without a prior
						// loss: anchor the epoch here.
						e.cubicOnLoss(i, t, mss)
					}
					tt := t + d - epochStart[i]
					target := e.cubicWindow(i, tt, mss)
					// RFC 8312 TCP-friendly region: CUBIC never grows
					// slower than an AIMD flow with the same β —
					// W_est = β·W_max + 3(1−β)/(1+β)·(t/RTT) segments.
					// Without this floor CUBIC stalls in small-window
					// regimes (its concave region is seconds long).
					wEst := (wmaxSeg[i]*cubicBeta +
						3*(1-cubicBeta)/(1+cubicBeta)*(tt/d)) * mss
					if wEst > target {
						target = wEst
					}
					if target < cwnd[i] {
						target = cwnd[i] // windows do not shrink without loss
					}
					if target > 1.5*cwnd[i] {
						target = 1.5 * cwnd[i] // RFC 8312 max-probing cap
					}
					cwnd[i] = min(target, maxWin)
				default: // Reno congestion avoidance
					cwnd[i] = min(cwnd[i]+mss, maxWin)
				}
			}
			if remaining[i] <= 0 {
				finishing = true
				// Finish within the round proportionally to how much of
				// the round the last bytes needed.
				frac := 1.0
				if accepted > 0 {
					need := remaining[i] + accepted // remaining at round start
					frac = need / accepted
					if frac > 1 {
						frac = 1
					}
				}
				e.endT[i] = t + d*frac
			}
		}

		// Counters.
		servedBytes += served
		e.res.DroppedBytes += dropped

		// Advance time and compact the active state in place, every
		// field together, emitting each finished flow's result in active
		// order. A flow has finished exactly when its remaining bytes
		// reached zero this round: active flows start with a positive
		// size and leave in the round they reach zero. Compaction is
		// order-preserving on purpose: the severity RNG draws follow
		// active order, so a swap-compact would change results. Most
		// rounds finish no flow, and then compaction is the identity, so
		// it is skipped.
		t += d
		if err := e.counters.Record(t, servedBytes); err != nil {
			return nil, err
		}
		if finishing {
			e.compact()
		}
		queue = newQueue
		nextPending = e.activate(t, nextPending, n, initCwnd, maxWin)
	}

	// Drain whatever is left in the buffer: the last flows' accepted
	// bytes may still be crossing the link.
	if queue > 0 {
		servedBytes += queue
		t += queue / capacity
		if err := e.counters.Record(t, servedBytes); err != nil {
			return nil, err
		}
		queue = 0
	}

	// Order results by (Arrival, ID); equal keys keep finish order, the
	// tie-break sort.SliceStable applied.
	slices.SortStableFunc(e.finished, func(x, y FlowResult) int {
		if c := cmp.Compare(x.Arrival, y.Arrival); c != 0 {
			return c
		}
		return cmp.Compare(x.ID, y.ID)
	})
	e.res.Flows = e.finished
	return &e.res, nil
}

// compact drops the flows that finished this round from the active
// state, appending their results to finished in active order, and moves
// the rest down in order.
func (e *Engine) compact() {
	k := 0
	for i, rem := range e.remaining {
		if rem <= 0 {
			slot := e.slot[i]
			e.finished = append(e.finished, FlowResult{
				ID:          e.id[slot],
				Arrival:     e.arrival[slot],
				End:         e.endT[i],
				Bytes:       e.size[slot],
				Retransmits: e.retrans[i],
			})
			continue
		}
		e.slot[k] = e.slot[i]
		e.remaining[k] = rem
		e.cwnd[k] = e.cwnd[i]
		e.ssthresh[k] = e.ssthresh[i]
		e.stalledTo[k] = e.stalledTo[i]
		e.wmaxSeg[k] = e.wmaxSeg[i]
		e.epochStart[k] = e.epochStart[i]
		e.kCubic[k] = e.kCubic[i]
		e.retrans[k] = e.retrans[i]
		k++
	}
	e.keepActive(k)
}

// SoloClientFCT is the engine-reusing form of the package-level
// SoloClientFCT: one client moving size bytes over nFlows parallel flows
// on an otherwise idle link, returning the client completion time.
func (e *Engine) SoloClientFCT(cfg Config, size units.ByteSize, nFlows int) (time.Duration, error) {
	if nFlows <= 0 {
		return 0, fmt.Errorf("tcpsim: nFlows must be > 0, got %d", nFlows)
	}
	per := units.ByteSize(size.Bytes() / float64(nFlows))
	specs := e.soloSpecs[:0]
	for i := 0; i < nFlows; i++ {
		specs = append(specs, FlowSpec{ID: i, Arrival: 0, Size: per})
	}
	e.soloSpecs = specs
	res, err := e.Run(cfg, specs)
	if err != nil {
		return 0, err
	}
	end := 0.0
	for _, f := range res.Flows {
		if f.End > end {
			end = f.End
		}
	}
	return units.Seconds(end), nil
}
