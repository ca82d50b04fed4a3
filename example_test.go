package timeprints_test

import (
	"fmt"

	timeprints "repro"
)

// ExampleLog shows the logging procedure on the paper's Figure 4
// example: four changes in a 16-cycle trace-cycle collapse to an 8-bit
// timeprint plus a 5-bit counter.
func ExampleLog() {
	enc, _ := timeprints.EncodingFromStrings([]string{
		"00010100", "00111010", "00001111", "01000100",
		"00000010", "10101110", "01100000", "11110101",
		"00010111", "11100111", "10100000", "10101000",
		"10011110", "10001111", "01110000", "01101100",
	})
	signal := timeprints.SignalFromChanges(16, 3, 4, 9, 10)
	entry := timeprints.Log(enc, signal)
	fmt.Printf("TP=%s k=%d (%d bits logged)\n",
		entry.TP, entry.K, timeprints.BitsPerTraceCycle(enc.B(), enc.M()))
	// Output: TP=00000001 k=4 (13 bits logged)
}

// ExampleNewReconstructor reconstructs the Figure 4 trace-cycle: the
// timeprint and counter alone leave 8 candidates; the verified
// paired-changes property isolates the actual signal.
func ExampleNewReconstructor() {
	enc, _ := timeprints.EncodingFromStrings([]string{
		"00010100", "00111010", "00001111", "01000100",
		"00000010", "10101110", "01100000", "11110101",
		"00010111", "11100111", "10100000", "10101000",
		"10011110", "10001111", "01110000", "01101100",
	})
	entry := timeprints.Log(enc, timeprints.SignalFromChanges(16, 3, 4, 9, 10))

	unconstrained, _ := timeprints.NewReconstructor(enc, entry, nil, timeprints.Options{})
	all, _, err := unconstrained.EnumerateStrict(0)
	if err != nil {
		panic(err)
	}

	constrained, _ := timeprints.NewReconstructor(enc, entry,
		[]timeprints.Constraint{timeprints.PairedChanges{}}, timeprints.Options{})
	unique, _, err := constrained.EnumerateStrict(0)
	if err != nil {
		panic(err)
	}

	fmt.Printf("%d candidates, %d with the property: changes at %v\n",
		len(all), len(unique), unique[0].Changes())
	// Output: 8 candidates, 1 with the property: changes at [3 4 9 10]
}

// ExampleLogRate computes the constant logging rate of the paper's CAN
// experiment: 34 bits per 1000-bit trace-cycle on a 5 Mbps bus.
func ExampleLogRate() {
	fmt.Printf("%.0f bit/s\n", timeprints.LogRate(24, 1000, 5e6))
	// Output: 170000 bit/s
}

// ExampleParseProperty parses a textual property expression into a
// reconstruction constraint.
func ExampleParseProperty() {
	p, err := timeprints.ParseProperty("mingap(3); dk(32,3)")
	if err != nil {
		panic(err)
	}
	sig := timeprints.SignalFromChanges(64, 5, 10, 20)
	fmt.Println(p, "holds:", p.Holds(sig))
	// Output: All(MinGap(3), Dk(>=3 before 32)) holds: true
}
