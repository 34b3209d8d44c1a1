package telemetry

import (
	"fmt"
	"io"
)

// LabeledRegistry pairs one registry with the label value that identifies
// its series in a multi-registry exposition — e.g. one registry per lock
// key, labeled with the key name.
type LabeledRegistry struct {
	Value string
	Reg   *Registry
}

// WritePrometheusMulti renders many registries as one Prometheus text
// exposition: base's series as they are, then each of regs' with an
// extra label (label=Value) distinguishing same-named series. The output
// is metric-major: each metric name appears exactly once with its
// # HELP / # TYPE header followed by every registry's samples — the
// exposition format forbids repeating a metric's header, so a
// registry-major loop (or writing base on its own first) would be
// invalid whenever two registries share a name.
//
// Metric order is first-registration order across the registries (base,
// then regs in the given order); a name registered with different metric
// types in different registries is an error. Registries may have
// disjoint metric sets — absent metrics are simply skipped for that
// registry.
func WritePrometheusMulti(w io.Writer, base *Registry, label string, regs []LabeledRegistry) error {
	type source struct {
		m     *metric
		extra string
	}
	var order []string
	byName := make(map[string][]source)
	add := func(reg *Registry, extra string) error {
		for _, m := range reg.snapshotMetrics() {
			prev, ok := byName[m.name]
			if !ok {
				order = append(order, m.name)
			} else if prev[0].m.kind != m.kind {
				return fmt.Errorf(
					"telemetry: metric %q has conflicting types across registries ({%s} vs {%s})",
					m.name, prev[0].extra, extra)
			}
			byName[m.name] = append(prev, source{m: m, extra: extra})
		}
		return nil
	}
	if err := add(base, ""); err != nil {
		return err
	}
	for _, lr := range regs {
		if err := add(lr.Reg, fmt.Sprintf("%s=%q", label, lr.Value)); err != nil {
			return err
		}
	}
	for _, name := range order {
		srcs := byName[name]
		if err := writeHeader(w, srcs[0].m); err != nil {
			return err
		}
		for _, s := range srcs {
			if err := writeSamples(w, s.m, s.extra); err != nil {
				return err
			}
		}
	}
	return nil
}

// Quantile estimates the q-quantile of the snapshot's distribution with
// the same uniform-within-bucket model as Histogram.Quantile.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	target := q * float64(s.Count)
	var cum float64
	lo := 0.0
	for i, bound := range s.Bounds {
		c := float64(s.Buckets[i])
		if cum+c >= target && c > 0 {
			frac := (target - cum) / c
			return lo + frac*(bound-lo)
		}
		cum += c
		lo = bound
	}
	return s.Bounds[len(s.Bounds)-1]
}

// MergeHistograms combines snapshots of same-shaped histograms (identical
// bucket bounds) into one distribution, with quantiles recomputed from
// the merged buckets — the aggregate view of per-key latency histograms.
// Snapshots with zero observations merge as identities regardless of
// shape; mismatched non-empty shapes panic, as that is a programming
// error on par with re-registering a metric with a different type.
func MergeHistograms(snaps ...HistogramSnapshot) HistogramSnapshot {
	var out HistogramSnapshot
	for _, s := range snaps {
		if s.Count == 0 && len(s.Bounds) == 0 {
			continue
		}
		if out.Bounds == nil {
			out.Bounds = append([]float64(nil), s.Bounds...)
			out.Buckets = make([]uint64, len(s.Buckets))
		} else if len(s.Bounds) != len(out.Bounds) {
			panic(fmt.Sprintf("telemetry: MergeHistograms bucket shape mismatch: %d bounds vs %d",
				len(s.Bounds), len(out.Bounds)))
		}
		for i, b := range s.Bounds {
			if b != out.Bounds[i] {
				panic(fmt.Sprintf("telemetry: MergeHistograms bound mismatch at %d: %v vs %v",
					i, b, out.Bounds[i]))
			}
		}
		for i, c := range s.Buckets {
			out.Buckets[i] += c
		}
		out.Count += s.Count
		out.Sum += s.Sum
	}
	out.P50 = out.Quantile(0.50)
	out.P99 = out.Quantile(0.99)
	return out
}
