package wire_test

import (
	"bytes"
	"testing"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/wire"
)

// benchToken is a representative PRIVILEGE token: a 4-entry Q-list and a
// 5-node granted table, the payload shape of the algorithm's hot path.
func benchToken() core.Privilege {
	return core.Privilege{
		Q: core.QList{
			{Node: 1, Seq: 41}, {Node: 3, Seq: 7},
			{Node: 0, Seq: 12}, {Node: 4, Seq: 3},
		},
		Granted: []uint64{40, 41, 6, 12, 2},
		Counter: 3,
		Epoch:   2,
		Gen:     97,
		Fence:   188,
	}
}

// BenchmarkSealOpenBinary measures one full binary encode+decode of the
// token through the codec — the steady-state per-message cost of the
// wire format. The encoder and decoder share one in-memory buffer,
// emulating one connection's pipeline without a socket.
func BenchmarkSealOpenBinary(b *testing.B) {
	algo, err := registry.RegisterWire(registry.Core)
	if err != nil {
		b.Fatal(err)
	}
	msg := benchToken()
	var pipe bytes.Buffer
	enc := wire.BinaryCodec().NewEncoder(&pipe, algo)
	dec := wire.BinaryCodec().NewDecoder(&pipe, algo)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(2, msg); err != nil {
			b.Fatal(err)
		}
		if _, _, err := dec.Decode(); err != nil {
			b.Fatal(err)
		}
	}
}
