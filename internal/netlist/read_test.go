package netlist_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/circuitgen"
	"repro/internal/netlist"
)

// cellsHash is the FNV-1a hash of the netlist name and every cell's
// type, name and fanin, in ID order: two parses hash alike only if they
// assign every ID the same way.
func cellsHash(n *netlist.Netlist) uint64 {
	h := fnv.New64a()
	var b [4]byte
	word := func(v int) {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
	text := func(s string) {
		word(len(s))
		h.Write([]byte(s))
	}
	text(n.Name)
	for id := int32(0); id < int32(n.NumGates()); id++ {
		g := n.Gate(id)
		word(int(g.Type))
		text(g.Name)
		word(len(g.Fanin))
		for _, f := range g.Fanin {
			word(int(f))
		}
	}
	return h.Sum64()
}

// writeText is netlist.Write into a string.
func writeText(t testing.TB, n *netlist.Netlist) string {
	t.Helper()
	var sb strings.Builder
	if err := netlist.Write(&sb, n); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// shuffleDecls keeps the header comment first and shuffles every other
// line of text with a seeded generator.
func shuffleDecls(text string, seed int64) string {
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	body := lines[1:]
	rand.New(rand.NewSource(seed)).Shuffle(len(body), func(i, j int) { body[i], body[j] = body[j], body[i] })
	return strings.Join(lines, "\n") + "\n"
}

// withNoise puts a blank line, a comment and an indented copy of every
// third line around the declarations; none of it may move an ID.
func withNoise(text string) string {
	var sb strings.Builder
	for i, line := range strings.Split(text, "\n") {
		switch i % 3 {
		case 1:
			sb.WriteString("\n# comment " + line + "\n")
		case 2:
			line = " \t" + line + "  "
		}
		sb.WriteString(line + "\n")
	}
	return sb.String()
}

// TestReadGolden pins every ID, name and fanin order Read assigns, as
// one hash per input: circuitgen designs as Write emits them, the same
// texts with their declarations shuffled, with CRLF line ends and with
// blank and comment lines, and a named sink cell.
func TestReadGolden(t *testing.T) {
	texts := map[string]string{
		"named-sink": "# sinks\nINPUT(n2)\nn1 = OUTPUT(n2)\nOBS(n2)\nn3 = NOT(n2)\nOUTPUT(n3)\n",
	}
	for _, gates := range []int{150, 2000, 20000} {
		text := writeText(t, circuitgen.Generate(fmt.Sprintf("g%d", gates), circuitgen.Config{Seed: int64(gates), NumGates: gates}))
		shuffled := shuffleDecls(text, int64(gates))
		texts[fmt.Sprintf("gen%d", gates)] = text
		texts[fmt.Sprintf("gen%d-shuffled", gates)] = shuffled
		texts[fmt.Sprintf("gen%d-crlf", gates)] = strings.ReplaceAll(shuffled, "\n", "\r\n")
		texts[fmt.Sprintf("gen%d-noise", gates)] = withNoise(shuffled)
	}
	want := map[string]uint64{
		"named-sink":        0xc1f00bfbebd1c642,
		"gen150":            0x9194d4dc7c0580b1,
		"gen150-shuffled":   0x90d233b001bcad95,
		"gen150-crlf":       0x90d233b001bcad95,
		"gen150-noise":      0x90d233b001bcad95,
		"gen2000":           0x415fdcf8ed01df10,
		"gen2000-shuffled":  0xcc3848b47af9fcd1,
		"gen2000-crlf":      0xcc3848b47af9fcd1,
		"gen2000-noise":     0xcc3848b47af9fcd1,
		"gen20000":          0x9e5eaffd01aff859,
		"gen20000-shuffled": 0x2c227758e14504a1,
		"gen20000-crlf":     0x2c227758e14504a1,
		"gen20000-noise":    0x2c227758e14504a1,
	}
	for name, text := range texts {
		n, err := netlist.Read(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := cellsHash(n); got != want[name] {
			t.Errorf("%s: %d cells hash to %#x, want %#x", name, n.NumGates(), got, want[name])
		}
	}
}

// TestReadErrorsExact fixes the error Read returns for each kind of
// malformed text, down to the line number and the net it names.
func TestReadErrorsExact(t *testing.T) {
	cases := []struct{ name, text, want string }{
		{"undeclared", "OUTPUT(zz)\n", `netlist: net "zz" used but never declared`},
		{"undeclared-fanin", "INPUT(a)\nz = AND(a, q)\nOUTPUT(z)\n", `netlist: net "q" used but never declared`},
		{"undeclared-before-cycle", "z = AND(u, c)\nc = NOT(c)\n", `netlist: net "u" used but never declared`},
		{"cycle", "a = NOT(b)\nb = NOT(a)\nOUTPUT(a)\n", `netlist: combinational cycle through net "a" (line 1)`},
		{"cycle-later", "INPUT(a)\nx = AND(a, y)\ny = NOT(x)\nOUTPUT(y)\n", `netlist: combinational cycle through net "x" (line 2)`},
		{"self-loop", "INPUT(a)\ng = AND(g, a)\n", `netlist: combinational cycle through net "g" (line 2)`},
		{"duplicate-input", "INPUT(a)\nINPUT(a)\n", `netlist: line 2: duplicate declaration of "a"`},
		{"duplicate-gate", "INPUT(a)\nb = NOT(a)\nb = BUF(a)\n", `netlist: line 3: duplicate declaration of "b"`},
		{"duplicate-empty", "INPUT()\n = NOT(x)\n", `netlist: line 2: duplicate declaration of ""`},
		{"unknown-type", "INPUT(a)\nz = FROB(a, a)\n", `netlist: line 2: netlist: unknown gate type "FROB"`},
		{"syntax", "INPUT(a)\nthis is not a line\n", `netlist: line 2: cannot parse "this is not a line"`},
		{"syntax-expression", "INPUT(a)\nz = AND a, b\n", `netlist: line 2: cannot parse expression "AND a, b"`},
		{"syntax-crlf-line", "INPUT(a)\r\n\r\n# c\r\nz == NOT(a)\r\n", `netlist: line 4: netlist: unknown gate type "= NOT"`},
		{"too-few-fanin", "INPUT(a)\nz = AND(a)\n", `netlist: line 2: netlist: AND gate "z" needs at least 2 fanin, got 1`},
		{"too-many-fanin", "INPUT(a)\nINPUT(b)\nz = NOT(a, b)\n", `netlist: line 3: netlist: NOT gate "z" allows at most 1 fanin, got 2`},
		{"input-with-fanin", "INPUT(a)\nx = INPUT(a)\n", `netlist: line 2: netlist: INPUT gate "x" allows at most 0 fanin, got 1`},
		{"sink-as-driver", "INPUT(a)\nn1 = OUTPUT(a)\nz = NOT(n1)\nOUTPUT(z)\n", `netlist: line 3: netlist: gate "z" reads OUTPUT cell 1, and sink cells drive nothing`},
		{"sink-observed", "INPUT(n2)\nn1=OUTPUT(n2)\nOBS(n1)", `netlist: line 3: netlist: gate "op_1" reads OUTPUT cell 1, and sink cells drive nothing`},
	}
	for _, c := range cases {
		_, err := netlist.Read(strings.NewReader(c.text))
		if err == nil {
			t.Errorf("%s: Read succeeded, want %q", c.name, c.want)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s: error %q, want %q", c.name, err.Error(), c.want)
		}
	}
}

// chainText is a NOT chain n0 → n1 → … → n<cells>, with its
// declarations in order or reversed.
func chainText(cells int, reversed bool) string {
	lines := make([]string, 0, cells+2)
	lines = append(lines, "INPUT(n0)")
	for i := 1; i <= cells; i++ {
		lines = append(lines, fmt.Sprintf("n%d = NOT(n%d)", i, i-1))
	}
	lines = append(lines, fmt.Sprintf("OUTPUT(n%d)", cells))
	if reversed {
		for i, j := 0, len(lines)-2; i < j; i, j = i+1, j-1 {
			lines[i], lines[j] = lines[j], lines[i]
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

// TestReadReverseChainInBoundedStack parses a 100,000-cell chain whose
// every cell is declared before its driver, under a 16 MiB stack limit.
// A reader that recurses once per level overflows that stack and kills
// the test binary; one that does not gives the cells of the same chain
// declared forward. Not parallel: the limit is process-wide.
func TestReadReverseChainInBoundedStack(t *testing.T) {
	old := debug.SetMaxStack(16 << 20)
	defer debug.SetMaxStack(old)
	rev, err := netlist.Read(strings.NewReader(chainText(100000, true)))
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := netlist.Read(strings.NewReader(chainText(100000, false)))
	if err != nil {
		t.Fatal(err)
	}
	if rev.NumGates() != 100002 || cellsHash(rev) != cellsHash(fwd) {
		t.Fatalf("reversed chain: %d cells hashing to %#x, forward %d cells to %#x",
			rev.NumGates(), cellsHash(rev), fwd.NumGates(), cellsHash(fwd))
	}
}

// generatedText is the text Write emits for a circuitgen design of about
// gates logic cells.
func generatedText(tb testing.TB, gates int) string {
	return writeText(tb, circuitgen.Generate("gen", circuitgen.Config{Seed: 1, NumGates: gates}))
}

// TestReadAllocations bounds what one parse allocates: the text, the
// name index and a fixed number of slices, nothing per cell or per
// line. The designs have fewer lines than the parse reserves room for
// up front, so nothing regrows, and no OBS lines, whose cell names are
// strings of their own.
func TestReadAllocations(t *testing.T) {
	for _, gates := range []int{2000, 20000} {
		text := generatedText(t, gates)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := netlist.Read(strings.NewReader(text)); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 200 {
			t.Errorf("%d gates: %.0f allocations per parse, want at most 200", gates, allocs)
		}
	}
}

// readBytes is the fewest bytes one Read of text allocates in three
// runs, whether it parses or fails.
func readBytes(text string) int64 {
	least := int64(math.MaxInt64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = netlist.Read(strings.NewReader(text)) // parsed or not, only its bytes count
		runtime.ReadMemStats(&after)
		least = min(least, int64(after.TotalAlloc-before.TotalAlloc))
	}
	return least
}

// TestReadBytesFollowDeclarations checks that text declaring nothing
// costs a parse only its copy of the text: blank lines, comment lines,
// commas in a comment, the words after the first of the header comment,
// and every line after a syntax error on line 1. Sizing the parse from
// raw line or comma counts instead reserves tens of bytes per such line
// before the first declaration is read.
func TestReadBytesFollowDeclarations(t *testing.T) {
	cases := []struct{ name, head, repeat string }{
		{"blank", "", "\n"},
		{"comment", "", "# c\n"},
		{"comment-commas", "\n# ", ","},
		{"header-words", "# ", "w "},
		{"after-syntax-error", "x\n", "\n"},
		{"after-one-cell", "INPUT(a)\n", "\n"},
	}
	for _, c := range cases {
		small := c.head + strings.Repeat(c.repeat, 1<<17)
		large := c.head + strings.Repeat(c.repeat, 1<<20)
		grew := readBytes(large) - readBytes(small)
		copied := int64(len(large) - len(small))
		if grew > copied+64<<10 {
			t.Errorf("%s: %d more repeats cost %d more bytes, %d of them the text's copy",
				c.name, 1<<20-1<<17, grew, copied)
		}
	}
}

// TestReadErrorsQuoteBoundedText checks that an error quotes a bounded
// prefix of the line, net name or gate type it reports, so a malformed
// line of any length makes a short error.
func TestReadErrorsQuoteBoundedText(t *testing.T) {
	long := strings.Repeat("\x01", 1<<20)
	cases := []struct{ text, prefix string }{
		{long + "\n", "netlist: line 1: cannot parse "},
		{"z = AND" + long + "\n", "netlist: line 1: cannot parse expression "},
		{"z = " + long + "(a)\n", "netlist: line 1: netlist: unknown gate type "},
		{"INPUT(" + long + ")\nINPUT(" + long + ")\n", "netlist: line 2: duplicate declaration of "},
		{"OUTPUT(" + long + ")\n", "netlist: net "},
		{long + " = NOT(" + long + ")\n", "netlist: combinational cycle through net "},
		{"INPUT(a)\n" + long + " = AND(a)\n", "netlist: line 2: netlist: AND gate "},
	}
	for _, c := range cases {
		_, err := netlist.Read(strings.NewReader(c.text))
		if err == nil {
			t.Fatalf("Read of %d bytes succeeded, want an error starting %q", len(c.text), c.prefix)
		}
		if msg := err.Error(); !strings.HasPrefix(msg, c.prefix) || len(msg) > 2048 {
			t.Errorf("error of %d bytes starting %q, want at most 2048 starting %q", len(msg), msg[:min(len(msg), 80)], c.prefix)
		}
	}
}

// BenchmarkRead parses a design of score-cold's size (circuitgen, 20,000
// gates, about 24k cells).
func BenchmarkRead(b *testing.B) {
	text := generatedText(b, 20000)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netlist.Read(strings.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}
