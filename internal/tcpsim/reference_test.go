package tcpsim

// This file preserves the original pointer-based round loop verbatim as
// the golden reference for the allocation-free SoA engine (engine.go).
// TestEngineMatchesReference asserts bit-identical results; any change to
// the engine's dynamics must be made here too, deliberately.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/stats"
)

// refFlow is the original internal mutable state of one TCP connection.
type refFlow struct {
	spec      FlowSpec
	remaining float64
	cwnd      float64
	ssthresh  float64
	stalledTo float64
	active    bool
	done      bool
	result    FlowResult

	wmaxSeg    float64
	epochStart float64
	kCubic     float64
}

func (f *refFlow) cubicWindow(tt, mss float64) float64 {
	d := tt - f.kCubic
	return (cubicC*d*d*d + f.wmaxSeg) * mss
}

func (f *refFlow) cubicOnLoss(now, mss float64) {
	f.wmaxSeg = f.cwnd / mss
	f.epochStart = now
	f.kCubic = math.Cbrt(f.wmaxSeg * (1 - cubicBeta) / cubicC)
}

// referenceRun is the seed implementation of Run, kept byte-for-byte in
// behavior (allocating per round, []*refFlow pointer chase).
func referenceRun(cfg Config, specs []FlowSpec) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, ErrNoFlows
	}
	for _, s := range specs {
		if s.Size < 0 || s.Arrival < 0 || math.IsNaN(s.Arrival) || math.IsInf(s.Arrival, 0) {
			return nil, fmt.Errorf("%w: id=%d arrival=%v size=%v", ErrBadFlowSpec, s.ID, s.Arrival, s.Size)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	capacity := cfg.Capacity.ByteRate().BytesPerSecond()
	mss := cfg.MSS.Bytes()
	buffer := cfg.bufferBytes()
	baseRTT := cfg.BaseRTT.Seconds()
	rto := cfg.RTO.Seconds()
	maxWin := cfg.BDP() + buffer
	initCwnd := float64(cfg.InitCwndSegments) * mss

	pending := make([]*refFlow, 0, len(specs))
	for _, s := range specs {
		f := &refFlow{
			spec:       s,
			remaining:  s.Size.Bytes(),
			cwnd:       initCwnd,
			ssthresh:   maxWin,
			epochStart: -1,
			result: FlowResult{
				ID:      s.ID,
				Arrival: s.Arrival,
				Bytes:   s.Size.Bytes(),
			},
		}
		pending = append(pending, f)
	}
	sort.SliceStable(pending, func(i, j int) bool { return pending[i].spec.Arrival < pending[j].spec.Arrival })

	res := &Result{Counters: &stats.LinkCounters{}}
	active := make([]*refFlow, 0, len(pending))
	finished := make([]FlowResult, 0, len(pending))

	t := pending[0].spec.Arrival
	queue := 0.0
	servedBytes := 0.0
	if err := res.Counters.Record(t, 0); err != nil {
		return nil, err
	}

	nextPending := 0
	activate := func(now float64) {
		for nextPending < len(pending) && pending[nextPending].spec.Arrival <= now {
			f := pending[nextPending]
			nextPending++
			if f.remaining <= 0 {
				f.result.End = f.spec.Arrival
				finished = append(finished, f.result)
				continue
			}
			f.active = true
			active = append(active, f)
		}
	}
	activate(t)

	for len(active) > 0 || nextPending < len(pending) {
		if t > horizon {
			return nil, fmt.Errorf("%w (t=%.1fs, %d flows still active)", ErrHorizon, t, len(active))
		}
		if len(active) == 0 {
			if queue > 0 {
				servedBytes += queue
				if err := res.Counters.Record(t+queue/capacity, servedBytes); err != nil {
					return nil, err
				}
				queue = 0
			}
			t = pending[nextPending].spec.Arrival
			activate(t)
			continue
		}

		roundCap := capacity * (1 - cfg.CrossFraction)
		d := baseRTT + queue/roundCap

		offered := make([]float64, len(active))
		total := 0.0
		for i, f := range active {
			if t < f.stalledTo {
				continue
			}
			w := math.Min(f.cwnd, f.remaining)
			offered[i] = w
			total += w
		}

		drain := roundCap * d
		backlog := queue + total
		served := math.Min(backlog, drain)
		newQueue := backlog - served
		dropped := 0.0
		if newQueue > buffer {
			dropped = newQueue - buffer
			newQueue = buffer
		}

		lostPerFlow := make([]float64, len(active))
		if dropped > 0 && total > 0 {
			weights := make([]float64, len(active))
			wsum := 0.0
			for i := range active {
				if offered[i] <= 0 {
					continue
				}
				w := 0.5 + rng.Float64()
				weights[i] = w * offered[i]
				wsum += weights[i]
			}
			for i := range active {
				if wsum <= 0 {
					break
				}
				loss := dropped * weights[i] / wsum
				if loss > offered[i] {
					loss = offered[i]
				}
				lostPerFlow[i] = loss
			}
		}

		for i, f := range active {
			if offered[i] <= 0 {
				continue
			}
			accepted := offered[i] - lostPerFlow[i]
			f.remaining -= accepted
			if lostPerFlow[i] > 0 {
				f.result.Retransmits += int64(math.Ceil(lostPerFlow[i] / mss))
				lossRatio := lostPerFlow[i] / offered[i]
				if lossRatio > 0.95 {
					if cfg.CC == Cubic {
						f.cubicOnLoss(t+d+rto, mss)
					}
					f.ssthresh = math.Max(f.cwnd/2, 2*mss)
					f.cwnd = mss
					f.stalledTo = t + d + rto
				} else {
					switch cfg.CC {
					case Cubic:
						f.cubicOnLoss(t+d, mss)
						f.ssthresh = math.Max(f.cwnd*cubicBeta, 2*mss)
					default:
						f.ssthresh = math.Max(f.cwnd/2, 2*mss)
					}
					f.cwnd = f.ssthresh
				}
			} else {
				switch {
				case f.cwnd < f.ssthresh:
					f.cwnd = math.Min(f.cwnd*2, maxWin)
				case cfg.CC == Cubic:
					if f.epochStart < 0 {
						f.cubicOnLoss(t, mss)
					}
					tt := t + d - f.epochStart
					target := f.cubicWindow(tt, mss)
					wEst := (f.wmaxSeg*cubicBeta +
						3*(1-cubicBeta)/(1+cubicBeta)*(tt/d)) * mss
					if wEst > target {
						target = wEst
					}
					if target < f.cwnd {
						target = f.cwnd
					}
					if target > 1.5*f.cwnd {
						target = 1.5 * f.cwnd
					}
					f.cwnd = math.Min(target, maxWin)
				default:
					f.cwnd = math.Min(f.cwnd+mss, maxWin)
				}
			}
			if f.remaining <= 0 {
				f.done = true
				frac := 1.0
				if accepted > 0 {
					need := f.remaining + accepted
					frac = need / accepted
					if frac > 1 {
						frac = 1
					}
				}
				f.result.End = t + d*frac
			}
		}

		servedBytes += served
		res.DroppedBytes += dropped

		t += d
		if err := res.Counters.Record(t, servedBytes); err != nil {
			return nil, err
		}
		keep := active[:0]
		for _, f := range active {
			if f.done {
				finished = append(finished, f.result)
			} else {
				keep = append(keep, f)
			}
		}
		active = keep
		queue = newQueue
		activate(t)
	}

	if queue > 0 {
		servedBytes += queue
		t += queue / capacity
		if err := res.Counters.Record(t, servedBytes); err != nil {
			return nil, err
		}
		queue = 0
	}

	sort.SliceStable(finished, func(i, j int) bool {
		if finished[i].Arrival != finished[j].Arrival {
			return finished[i].Arrival < finished[j].Arrival
		}
		return finished[i].ID < finished[j].ID
	})
	res.Flows = finished
	return res, nil
}
