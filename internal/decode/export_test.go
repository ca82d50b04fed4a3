package decode

import "reflect"

// HasPairCollisions exposes the pairwise-XOR index to the external test
// package: it reports whether any TS(i)^TS(j) value is produced by more
// than one pair, i.e. the encoding is weak enough to exercise the
// multi-pair decomposition paths.
func (d *Decoder) HasPairCollisions() bool {
	d.buildPairs()
	for _, next := range d.pairs.next {
		if next >= 0 {
			return true
		}
	}
	return false
}

// IndexTypes returns the types of the decoder's index fields, whose
// backing arrays the garbage collector must never need to scan.
func IndexTypes() map[string]reflect.Type {
	dt := reflect.TypeOf(Decoder{})
	out := map[string]reflect.Type{}
	for _, name := range []string{"stamps", "single", "pairs"} {
		f, _ := dt.FieldByName(name)
		out[name] = f.Type
	}
	return out
}
