package sexpr

import (
	"errors"
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustReadOne(t *testing.T, src string) Datum {
	t.Helper()
	d, err := ReadOne(src)
	if err != nil {
		t.Fatalf("ReadOne(%q): %v", src, err)
	}
	return d
}

func TestReadBooleans(t *testing.T) {
	if d := mustReadOne(t, "#t"); d != Bool(true) {
		t.Fatalf("got %v", d)
	}
	if d := mustReadOne(t, "#f"); d != Bool(false) {
		t.Fatalf("got %v", d)
	}
}

func TestReadNumbers(t *testing.T) {
	cases := map[string]int64{
		"0":      0,
		"42":     42,
		"-17":    -17,
		"+5":     5,
		"123456": 123456,
	}
	for src, want := range cases {
		d := mustReadOne(t, src)
		n, ok := d.(Num)
		if !ok {
			t.Fatalf("ReadOne(%q) = %T, want Num", src, d)
		}
		if n.Int.Int64() != want {
			t.Fatalf("ReadOne(%q) = %v, want %d", src, n, want)
		}
	}
}

func TestReadBigNumber(t *testing.T) {
	src := "123456789012345678901234567890"
	d := mustReadOne(t, src)
	n := d.(Num)
	want, _ := new(big.Int).SetString(src, 10)
	if n.Int.Cmp(want) != 0 {
		t.Fatalf("got %v want %v", n, want)
	}
}

func TestReadSymbols(t *testing.T) {
	for _, src := range []string{"foo", "set!", "+", "-", "...", "list->vector", "a1", "<=?", "%undef"} {
		d := mustReadOne(t, src)
		if s, ok := d.(Sym); !ok || string(s) != src {
			t.Fatalf("ReadOne(%q) = %#v", src, d)
		}
	}
}

func TestReadStrings(t *testing.T) {
	d := mustReadOne(t, `"hello\nworld \"x\""`)
	if s, ok := d.(Str); !ok || string(s) != "hello\nworld \"x\"" {
		t.Fatalf("got %#v", d)
	}
}

func TestReadChars(t *testing.T) {
	cases := map[string]rune{
		`#\a`:       'a',
		`#\space`:   ' ',
		`#\newline`: '\n',
		`#\(`:       '(',
		`#\1`:       '1',
	}
	for src, want := range cases {
		d := mustReadOne(t, src)
		if c, ok := d.(Char); !ok || rune(c) != want {
			t.Fatalf("ReadOne(%q) = %#v, want %q", src, d, want)
		}
	}
}

func TestReadLists(t *testing.T) {
	d := mustReadOne(t, "(a (b c) d)")
	want := List(Sym("a"), List(Sym("b"), Sym("c")), Sym("d"))
	if !Equal(d, want) {
		t.Fatalf("got %v want %v", d, want)
	}
}

func TestReadEmptyList(t *testing.T) {
	if _, ok := mustReadOne(t, "()").(Nil); !ok {
		t.Fatal("() should read as Nil")
	}
}

func TestReadDottedPair(t *testing.T) {
	d := mustReadOne(t, "(a . b)")
	p, ok := d.(*Pair)
	if !ok || !Equal(p.Car, Sym("a")) || !Equal(p.Cdr, Sym("b")) {
		t.Fatalf("got %v", d)
	}
}

func TestReadDottedList(t *testing.T) {
	d := mustReadOne(t, "(a b . c)")
	items, tail := FlattenDotted(d)
	if len(items) != 2 || !Equal(tail, Sym("c")) {
		t.Fatalf("got items=%v tail=%v", items, tail)
	}
}

func TestDotVsEllipsis(t *testing.T) {
	d := mustReadOne(t, "(a ... b)")
	want := List(Sym("a"), Sym("..."), Sym("b"))
	if !Equal(d, want) {
		t.Fatalf("got %v", d)
	}
}

func TestReadVector(t *testing.T) {
	d := mustReadOne(t, "#(1 2 three)")
	v, ok := d.(Vector)
	if !ok || len(v) != 3 {
		t.Fatalf("got %#v", d)
	}
	if !Equal(v[2], Sym("three")) {
		t.Fatalf("got %v", v)
	}
}

func TestReadQuoteAbbreviations(t *testing.T) {
	cases := map[string]Datum{
		"'x":     List(Sym("quote"), Sym("x")),
		"`x":     List(Sym("quasiquote"), Sym("x")),
		",x":     List(Sym("unquote"), Sym("x")),
		",@x":    List(Sym("unquote-splicing"), Sym("x")),
		"'(1 2)": List(Sym("quote"), List(NewNum(1), NewNum(2))),
	}
	for src, want := range cases {
		if d := mustReadOne(t, src); !Equal(d, want) {
			t.Fatalf("ReadOne(%q) = %v, want %v", src, d, want)
		}
	}
}

func TestReadComments(t *testing.T) {
	d := mustReadOne(t, "; header\n(a ; inline\n b) ; trailing")
	if !Equal(d, List(Sym("a"), Sym("b"))) {
		t.Fatalf("got %v", d)
	}
}

func TestReadBlockComments(t *testing.T) {
	d := mustReadOne(t, "#| outer #| nested |# still out |# (x)")
	if !Equal(d, List(Sym("x"))) {
		t.Fatalf("got %v", d)
	}
}

func TestReadDatumComment(t *testing.T) {
	d := mustReadOne(t, "(a #;(skipped thing) b)")
	if !Equal(d, List(Sym("a"), Sym("b"))) {
		t.Fatalf("got %v", d)
	}
}

func TestReadBrackets(t *testing.T) {
	d := mustReadOne(t, "(let ([x 1]) x)")
	want := List(Sym("let"), List(List(Sym("x"), NewNum(1))), Sym("x"))
	if !Equal(d, want) {
		t.Fatalf("got %v", d)
	}
}

func TestMismatchedBrackets(t *testing.T) {
	if _, err := ReadOne("(a]"); err == nil {
		t.Fatal("expected error for (a]")
	}
}

func TestReadAll(t *testing.T) {
	ds, err := ReadAll("(define x 1) (define y 2) (+ x y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 3 {
		t.Fatalf("got %d data", len(ds))
	}
}

func TestReadErrors(t *testing.T) {
	for _, src := range []string{")", "(a", `"abc`, "#q", "(. b)", "(a . )", "(a . b c)", "'", "#\\"} {
		if _, err := ReadOne(src); err == nil {
			t.Errorf("ReadOne(%q): expected error", src)
		}
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := ReadOne("(a\n  ]")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("got %T: %v", err, err)
	}
	if se.Line != 2 {
		t.Fatalf("got line %d, want 2", se.Line)
	}
}

// TestNestingDepthLimit pins the reader's nesting bound: a datum exactly
// maxDepth levels deep reads, one level more is a *SyntaxError, and a
// 2M-deep input — which used to overflow the Go stack, a fatal error —
// comes back as an error too. Every kind of level counts: lists, vectors,
// quote abbreviations, and stacked datum comments.
func TestNestingDepthLimit(t *testing.T) {
	nested := func(open, closeWith string, n int) string {
		return strings.Repeat(open, n) + "x" + strings.Repeat(closeWith, n)
	}
	if _, err := ReadOne(nested("(", ")", maxDepth)); err != nil {
		t.Fatalf("list at the limit: %v", err)
	}
	if _, err := ReadOne(nested("'", "", maxDepth)); err != nil {
		t.Fatalf("quotes at the limit: %v", err)
	}
	for name, src := range map[string]string{
		"list":           nested("(", ")", maxDepth+1),
		"vector":         nested("#(", ")", maxDepth+1),
		"quote":          nested("'", "", maxDepth+1),
		"mixed":          nested("(`", ")", maxDepth/2+1),
		"datum comments": strings.Repeat("#;", maxDepth+1) + strings.Repeat("a ", maxDepth+2),
		"2M deep":        nested("(", ")", 2_000_000),
	} {
		_, err := ReadAll(src)
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("%s past the limit: got %T %v, want *SyntaxError", name, err, err)
			continue
		}
		if !strings.Contains(se.Msg, "nested deeper") {
			t.Errorf("%s past the limit: %v", name, se)
		}
	}
	// The count is of open levels, not of lists read: wide input is fine.
	if _, err := ReadOne("(" + strings.Repeat("(a) ", 3*maxDepth) + ")"); err != nil {
		t.Fatalf("wide list: %v", err)
	}
}

// randomDatum builds a random datum of bounded depth for the round-trip
// property test.
func randomDatum(r *rand.Rand, depth int) Datum {
	if depth <= 0 {
		switch r.Intn(5) {
		case 0:
			return Bool(r.Intn(2) == 0)
		case 1:
			return Num{Int: big.NewInt(r.Int63n(1 << 40))}
		case 2:
			syms := []string{"a", "foo", "set!", "+", "list->vector", "x1"}
			return Sym(syms[r.Intn(len(syms))])
		case 3:
			return Str("s" + string(rune('a'+r.Intn(26))))
		default:
			return Char(rune('a' + r.Intn(26)))
		}
	}
	switch r.Intn(4) {
	case 0:
		n := r.Intn(4)
		items := make([]Datum, n)
		for i := range items {
			items[i] = randomDatum(r, depth-1)
		}
		return List(items...)
	case 1:
		n := r.Intn(3)
		v := make(Vector, n)
		for i := range v {
			v[i] = randomDatum(r, depth-1)
		}
		return v
	case 2:
		return &Pair{Car: randomDatum(r, depth-1), Cdr: randomDatum(r, 0)}
	default:
		return randomDatum(r, 0)
	}
}

func TestPropertyPrintReadRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDatum(r, 4)
		text := d.String()
		back, err := ReadOne(text)
		if err != nil {
			t.Logf("reading %q: %v", text, err)
			return false
		}
		return Equal(d, back)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyReadAllConcatenation(t *testing.T) {
	// Printing several data separated by whitespace and re-reading yields the
	// same sequence.
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		var parts []string
		var data []Datum
		for i := 0; i < n; i++ {
			d := randomDatum(r, 3)
			data = append(data, d)
			parts = append(parts, d.String())
		}
		back, err := ReadAll(strings.Join(parts, "\n"))
		if err != nil || len(back) != len(data) {
			return false
		}
		for i := range data {
			if !Equal(data[i], back[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestWriterRendering(t *testing.T) {
	cases := map[string]Datum{
		"#t":        Bool(true),
		"42":        NewNum(42),
		"(a b)":     List(Sym("a"), Sym("b")),
		"(a . b)":   &Pair{Car: Sym("a"), Cdr: Sym("b")},
		"#(1 2)":    Vector{NewNum(1), NewNum(2)},
		"()":        Nil{},
		`"hi"`:      Str("hi"),
		`#\space`:   Char(' '),
		"(a b . c)": ImproperList([]Datum{Sym("a"), Sym("b")}, Sym("c")),
	}
	for want, d := range cases {
		if got := d.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestFlatten(t *testing.T) {
	items, ok := Flatten(List(Sym("a"), Sym("b")))
	if !ok || len(items) != 2 {
		t.Fatalf("got %v %v", items, ok)
	}
	if _, ok := Flatten(&Pair{Car: Sym("a"), Cdr: Sym("b")}); ok {
		t.Fatal("improper list should not flatten")
	}
}
