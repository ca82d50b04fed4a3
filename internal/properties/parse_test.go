package properties

import (
	"testing"

	"repro/internal/core"
)

func TestParseSingleProperties(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"p2", "P2(adjacent-pair-exists)"},
		{"P2", "P2(adjacent-pair-exists)"},
		{"dk(32,3)", "Dk(>=3 before 32)"},
		{"paired", "PairedChanges"},
		{"window(5, 10)", "Window[5,10)"},
		{"changebefore(8)", "ChangeBefore(8)"},
		{"quietbefore(8)", "QuietBefore(8)"},
		{"mingap(4)", "MinGap(4)"},
		{"maxgap(6)", "MaxGap(6)"},
		{"response(1,3)", "Response[1,3]"},
		{"periodic(100,5)", "Periodic(100±5)"},
		{"count(0,100,2,2)", "Count[0,100) in [2,2]"},
		{"first(2,9)", "FirstChangeIn[2,9)"},
		{"exact(1,2,3)", "ExactChanges(1,2,3)"},
	}
	for _, tc := range cases {
		p, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if p.String() != tc.want {
			t.Errorf("Parse(%q) = %s, want %s", tc.in, p, tc.want)
		}
	}
}

func TestParseConjunction(t *testing.T) {
	p, err := Parse("mingap(3); dk(16,2)")
	if err != nil {
		t.Fatal(err)
	}
	all, ok := p.(All)
	if !ok || len(all) != 2 {
		t.Fatalf("parsed %T %v", p, p)
	}
	// Semantics: both conjuncts enforced.
	good := core.SignalFromChanges(32, 2, 8, 20)
	bad := core.SignalFromChanges(32, 2, 3, 20) // gap 1 < 3
	if !p.Holds(good) || p.Holds(bad) {
		t.Error("conjunction semantics wrong")
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"", ";", "bogus", "dk(1)", "dk(1,2,3)", "window(1", "dk(a,b)",
		"p2(1)", "response(1)",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

func TestParsedPropertiesCompile(t *testing.T) {
	// Parsed properties must compile like their direct counterparts.
	p, err := Parse("dk(6,2); window(0,10)")
	if err != nil {
		t.Fatal(err)
	}
	checkCompilation(t, p, 10)
}
