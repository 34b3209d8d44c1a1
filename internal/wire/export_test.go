package wire

// MaxInterned exposes the key-intern cap to the black-box tests.
const MaxInterned = maxInterned

// Interned reports how many keys the decoder's intern table holds.
func (d *Decoder) Interned() int { return len(d.keys) }
