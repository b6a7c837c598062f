package sexpr

import (
	"fmt"
	"math/big"
	"strings"
	"unicode"
)

// SyntaxError reports a malformed program text with a position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("syntax error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// maxDepth bounds datum nesting: each list, vector, quote abbreviation, and
// datum comment opens one level. The reader, the expander, and every later
// pass over the syntax tree recurse once per level, and Go reports a stack
// overflow as a fatal error, not a recoverable panic: without a bound, a
// 2M-deep file kills the process. Ten thousand levels is far beyond anything
// written by hand or generated here, and keeps all of those passes a long
// way below the Go stack limit.
const maxDepth = 10_000

// Reader parses a stream of data from program text.
type Reader struct {
	src       []rune
	pos       int
	line, col int
	depth     int // open nesting levels (see maxDepth)
}

// NewReader returns a Reader over src.
func NewReader(src string) *Reader {
	return &Reader{src: []rune(src), line: 1, col: 1}
}

// ReadAll parses every datum in src.
func ReadAll(src string) ([]Datum, error) {
	r := NewReader(src)
	var out []Datum
	for {
		d, err := r.Read()
		if err != nil {
			return nil, err
		}
		if d == nil {
			return out, nil
		}
		out = append(out, d)
	}
}

// ReadOne parses exactly one datum and requires nothing but whitespace after it.
func ReadOne(src string) (Datum, error) {
	r := NewReader(src)
	d, err := r.Read()
	if err != nil {
		return nil, err
	}
	if d == nil {
		return nil, r.errf("expected a datum, found end of input")
	}
	rest, err := r.Read()
	if err != nil {
		return nil, err
	}
	if rest != nil {
		return nil, r.errf("unexpected extra datum %s", rest)
	}
	return d, nil
}

func (r *Reader) errf(format string, args ...any) error {
	return &SyntaxError{Line: r.line, Col: r.col, Msg: fmt.Sprintf(format, args...)}
}

// enter opens one nesting level, failing past maxDepth; pair it with a
// deferred leave.
func (r *Reader) enter() error {
	if r.depth >= maxDepth {
		return r.errf("datum nested deeper than %d levels", maxDepth)
	}
	r.depth++
	return nil
}

func (r *Reader) leave() { r.depth-- }

func (r *Reader) peek() (rune, bool) {
	if r.pos >= len(r.src) {
		return 0, false
	}
	return r.src[r.pos], true
}

func (r *Reader) next() (rune, bool) {
	c, ok := r.peek()
	if !ok {
		return 0, false
	}
	r.pos++
	if c == '\n' {
		r.line++
		r.col = 1
	} else {
		r.col++
	}
	return c, true
}

func (r *Reader) skipAtmosphere() error {
	for {
		c, ok := r.peek()
		if !ok {
			return nil
		}
		switch {
		case unicode.IsSpace(c):
			r.next()
		case c == ';':
			for {
				c, ok := r.next()
				if !ok || c == '\n' {
					break
				}
			}
		case c == '#' && r.pos+1 < len(r.src) && r.src[r.pos+1] == '|':
			r.next()
			r.next()
			depth := 1
			for depth > 0 {
				c, ok := r.next()
				if !ok {
					return r.errf("unterminated block comment")
				}
				if c == '|' {
					if d, ok := r.peek(); ok && d == '#' {
						r.next()
						depth--
					}
				} else if c == '#' {
					if d, ok := r.peek(); ok && d == '|' {
						r.next()
						depth++
					}
				}
			}
		case c == '#' && r.pos+1 < len(r.src) && r.src[r.pos+1] == ';':
			// Datum comment: #; skips the next datum.
			r.next()
			r.next()
			if err := r.skipDatum(); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

// skipDatum reads and discards the datum after a #; comment. Datum comments
// can stack (#; #; a b), so each one is a nesting level.
func (r *Reader) skipDatum() error {
	if err := r.enter(); err != nil {
		return err
	}
	defer r.leave()
	if err := r.skipAtmosphere(); err != nil {
		return err
	}
	d, err := r.Read()
	if err != nil {
		return err
	}
	if d == nil {
		return r.errf("datum comment at end of input")
	}
	return nil
}

// Read parses the next datum, or returns (nil, nil) at end of input.
func (r *Reader) Read() (Datum, error) {
	if err := r.skipAtmosphere(); err != nil {
		return nil, err
	}
	c, ok := r.peek()
	if !ok {
		return nil, nil
	}
	switch c {
	case '(', '[':
		return r.readList(c)
	case ')', ']':
		return nil, r.errf("unexpected %q", c)
	case '\'':
		r.next()
		return r.readAbbrev("quote")
	case '`':
		r.next()
		return r.readAbbrev("quasiquote")
	case ',':
		r.next()
		if d, ok := r.peek(); ok && d == '@' {
			r.next()
			return r.readAbbrev("unquote-splicing")
		}
		return r.readAbbrev("unquote")
	case '"':
		return r.readString()
	case '#':
		return r.readHash()
	default:
		return r.readAtom()
	}
}

func (r *Reader) readAbbrev(tag string) (Datum, error) {
	if err := r.enter(); err != nil {
		return nil, err
	}
	defer r.leave()
	d, err := r.Read()
	if err != nil {
		return nil, err
	}
	if d == nil {
		return nil, r.errf("expected a datum after %s abbreviation", tag)
	}
	return List(Sym(tag), d), nil
}

func closerFor(open rune) rune {
	if open == '[' {
		return ']'
	}
	return ')'
}

func (r *Reader) readList(open rune) (Datum, error) {
	if err := r.enter(); err != nil {
		return nil, err
	}
	defer r.leave()
	r.next() // consume opener
	closer := closerFor(open)
	var items []Datum
	for {
		if err := r.skipAtmosphere(); err != nil {
			return nil, err
		}
		c, ok := r.peek()
		if !ok {
			return nil, r.errf("unterminated list")
		}
		if c == closer {
			r.next()
			return List(items...), nil
		}
		if c == ')' || c == ']' {
			return nil, r.errf("mismatched closer %q (expected %q)", c, closer)
		}
		if c == '.' && r.isDelimitedDot() {
			if len(items) == 0 {
				return nil, r.errf("dot with no preceding datum")
			}
			r.next()
			tail, err := r.Read()
			if err != nil {
				return nil, err
			}
			if tail == nil {
				return nil, r.errf("expected a datum after dot")
			}
			if err := r.skipAtmosphere(); err != nil {
				return nil, err
			}
			c, ok := r.next()
			if !ok || c != closer {
				return nil, r.errf("expected %q after dotted tail", closer)
			}
			return ImproperList(items, tail), nil
		}
		d, err := r.Read()
		if err != nil {
			return nil, err
		}
		if d == nil {
			return nil, r.errf("unterminated list")
		}
		items = append(items, d)
	}
}

// isDelimitedDot reports whether the '.' at the cursor stands alone (a dotted
// pair marker) as opposed to starting a symbol like '...'.
func (r *Reader) isDelimitedDot() bool {
	if r.pos+1 >= len(r.src) {
		return true
	}
	c := r.src[r.pos+1]
	return unicode.IsSpace(c) || c == '(' || c == ')' || c == '[' || c == ']' || c == ';'
}

func (r *Reader) readString() (Datum, error) {
	r.next() // consume quote
	var sb strings.Builder
	for {
		c, ok := r.next()
		if !ok {
			return nil, r.errf("unterminated string")
		}
		if c == '"' {
			return Str(sb.String()), nil
		}
		if c == '\\' {
			e, ok := r.next()
			if !ok {
				return nil, r.errf("unterminated string escape")
			}
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case '"', '\\':
				sb.WriteRune(e)
			default:
				return nil, r.errf("unknown string escape \\%c", e)
			}
			continue
		}
		sb.WriteRune(c)
	}
}

func (r *Reader) readHash() (Datum, error) {
	r.next() // consume '#'
	c, ok := r.peek()
	if !ok {
		return nil, r.errf("lone #")
	}
	switch c {
	case 't', 'f':
		r.next()
		if d, ok := r.peek(); ok && !isDelimiter(d) {
			return nil, r.errf("bad boolean literal")
		}
		return Bool(c == 't'), nil
	case '(':
		d, err := r.readList('(')
		if err != nil {
			return nil, err
		}
		items, _ := Flatten(d)
		return Vector(items), nil
	case '\\':
		r.next()
		return r.readChar()
	default:
		return nil, r.errf("unknown # syntax #%c", c)
	}
}

func (r *Reader) readChar() (Datum, error) {
	c, ok := r.next()
	if !ok {
		return nil, r.errf("unterminated character literal")
	}
	// A named character is a letter followed by more letters.
	if unicode.IsLetter(c) {
		name := string(c)
		for {
			d, ok := r.peek()
			if !ok || isDelimiter(d) {
				break
			}
			r.next()
			name += string(d)
		}
		if len([]rune(name)) == 1 {
			return Char(c), nil
		}
		switch strings.ToLower(name) {
		case "space":
			return Char(' '), nil
		case "newline", "linefeed":
			return Char('\n'), nil
		case "tab":
			return Char('\t'), nil
		case "return":
			return Char('\r'), nil
		case "nul", "null":
			return Char(0), nil
		default:
			return nil, r.errf("unknown character name #\\%s", name)
		}
	}
	return Char(c), nil
}

func isDelimiter(c rune) bool {
	return unicode.IsSpace(c) || c == '(' || c == ')' || c == '[' || c == ']' || c == '"' || c == ';'
}

func (r *Reader) readAtom() (Datum, error) {
	var sb strings.Builder
	for {
		c, ok := r.peek()
		if !ok || isDelimiter(c) {
			break
		}
		r.next()
		sb.WriteRune(c)
	}
	text := sb.String()
	if text == "" {
		return nil, r.errf("empty atom")
	}
	if text == "." {
		return nil, r.errf("a lone dot is only valid inside a list")
	}
	if n, ok := parseInt(text); ok {
		return Num{Int: n}, nil
	}
	return Sym(text), nil
}

func parseInt(text string) (*big.Int, bool) {
	// Only treat text as a number when it is a valid exact integer; "+", "-",
	// and "..." are symbols.
	if text == "+" || text == "-" {
		return nil, false
	}
	body := text
	if body[0] == '+' || body[0] == '-' {
		body = body[1:]
	}
	if body == "" {
		return nil, false
	}
	for _, c := range body {
		if c < '0' || c > '9' {
			return nil, false
		}
	}
	n := new(big.Int)
	n, ok := n.SetString(text, 10)
	return n, ok
}
