package wire_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/wire"
)

// FuzzCodecEquivalence is the differential fuzz target for the wire
// codec: arbitrary bytes are interpreted as one frame for one of the
// registered message families (core's and the session protocol's, so
// the fuzzer reaches every message layout). The decoder must never panic and must
// type every in-body failure as *wire.MismatchError or
// *wire.DecodeError; any frame it does accept must re-encode and
// round-trip identically at the dme.Message level, wrappers included;
// and the gob oracle, handed the same message value, must agree.
//
// The seed corpus holds well-formed frames for every message type of
// every family (zero-valued; fully populated and keyed and traced,
// keyed only, traced only) plus a truncated and a bit-flipped variant of
// each, so even the -fuzztime=30s CI smoke run covers every layout's
// decode path under every wrapper combination.
func FuzzCodecEquivalence(f *testing.F) {
	algos, seeds := codecSeeds(f)
	for _, sd := range seeds {
		for _, frame := range sd.variants() {
			f.Add(sd.algoIdx, frame)
		}
	}

	f.Fuzz(func(t *testing.T, algoSel byte, frame []byte) {
		algo := algos[int(algoSel)%len(algos)]
		from, msg, err := wire.BinaryCodec().NewDecoder(bytes.NewReader(frame), algo).Decode()
		if err != nil {
			// Rejected input. Stream-level failures (short read, bad
			// length prefix) may be plain errors, but anything inside a
			// complete frame must carry one of the two typed errors.
			var de *wire.DecodeError
			var mm *wire.MismatchError
			if errors.As(err, &de) && errors.As(err, &mm) {
				t.Fatalf("error is both a mismatch and a decode error: %v", err)
			}
			return
		}
		if msg == nil {
			t.Fatal("binary decode returned (nil, nil)")
		}

		// The decoder vouched for this message: it must round-trip
		// identically, and the oracle must agree on its value.
		var bin bytes.Buffer
		if err := wire.BinaryCodec().NewEncoder(&bin, algo).Encode(from, msg); err != nil {
			t.Fatalf("re-encode binary %T: %v", msg, err)
		}
		bFrom, bMsg, err := wire.BinaryCodec().NewDecoder(&bin, algo).Decode()
		if err != nil {
			t.Fatalf("re-decode binary %T: %v", msg, err)
		}
		if bFrom != from || !reflect.DeepEqual(bMsg, msg) {
			t.Fatalf("binary round trip:\n in: (%d, %#v)\nout: (%d, %#v)", from, msg, bFrom, bMsg)
		}
		inner, _, _ := wire.Unwrap(msg)
		if want := gobRoundTrip(t, inner); !reflect.DeepEqual(inner, want) {
			t.Fatalf("binary and the gob oracle disagree:\nbinary: %#v\n   gob: %#v", inner, want)
		}
	})
}

// codecSeed is one message of FuzzCodecEquivalence's seed corpus, with
// the frame Encode writes for it.
type codecSeed struct {
	algoIdx byte // index of algo in the corpus's algorithm list
	algo    string
	msg     dme.Message
	frame   []byte
}

// codecSeeds builds the seed corpus: every message type of every
// family, zero-valued, then fully populated keyed and traced, keyed
// only and traced only. It returns the families' algorithm names in
// algoIdx order beside it.
func codecSeeds(t testing.TB) ([]string, []codecSeed) {
	var algos []string
	var seeds []codecSeed
	for _, fam := range families(t) {
		algoIdx := byte(len(algos))
		algos = append(algos, fam.algo)
		for _, proto := range fam.msgs {
			full := filled(proto, 0x9e3779b97f4a7c15)
			for _, msg := range []dme.Message{
				proto,
				wire.Wrap(full, wire.WithKey("orders"), wire.WithTrace(9)),
				wire.Wrap(full, wire.WithKey("orders")),
				wire.Wrap(full, wire.WithTrace(9)),
			} {
				var buf bytes.Buffer
				if err := wire.BinaryCodec().NewEncoder(&buf, fam.algo).Encode(3, msg); err != nil {
					t.Fatalf("%s %s: seed encode: %v", fam.algo, msg.Kind(), err)
				}
				seeds = append(seeds, codecSeed{algoIdx, fam.algo, msg, buf.Bytes()})
			}
		}
	}
	return algos, seeds
}

// variants returns the seed's frame, a truncated copy and a copy with
// its last byte flipped.
func (sd codecSeed) variants() [][]byte {
	flipped := append([]byte(nil), sd.frame...)
	flipped[len(flipped)-1] ^= 0xa5
	return [][]byte{
		append([]byte(nil), sd.frame...),
		append([]byte(nil), sd.frame[:len(sd.frame)/2]...),
		flipped,
	}
}
