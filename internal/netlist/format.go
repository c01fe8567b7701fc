package netlist

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unicode"
)

// This file implements a textual netlist format modeled on the ISCAS-85/89
// ".bench" format, extended with OBS cells for inserted observation
// points. It is line oriented:
//
//	# comment
//	INPUT(a)
//	OUTPUT(z)
//	g1 = NAND(a, b)
//	q  = DFF(g1)
//	z  = BUF(g1)
//	OBS(g1)
//
// OUTPUT(x) and OBS(x) declare sink cells attached to net x; all other
// lines declare a named cell with its driver list. Declarations may appear
// in any order; the reader performs its own topological construction.

// Write serializes the netlist in .bench format.
func Write(w io.Writer, n *Netlist) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s : %d gates, %d edges\n", n.Name, n.NumGates(), n.NumEdges())
	name := benchNames(n)
	// Inputs first, then logic in topological (ID) order, then sinks.
	for i := 0; i < n.NumGates(); i++ {
		if n.gates[i].Type == Input {
			fmt.Fprintf(bw, "INPUT(%s)\n", name[i])
		}
	}
	// Read numbers sink lines after every declared cell, so sinks follow
	// the logic here too, or a sink declared among the logic would move
	// on the next read.
	for i := 0; i < n.NumGates(); i++ {
		g := &n.gates[i]
		switch g.Type {
		case Input, Output, Obs:
		default:
			args := make([]string, len(g.Fanin))
			for j, f := range g.Fanin {
				args[j] = name[f]
			}
			fmt.Fprintf(bw, "%s = %s(%s)\n", name[i], g.Type, strings.Join(args, ", "))
		}
	}
	for i := 0; i < n.NumGates(); i++ {
		switch g := &n.gates[i]; g.Type {
		case Output:
			fmt.Fprintf(bw, "OUTPUT(%s)\n", name[g.Fanin[0]])
		case Obs:
			fmt.Fprintf(bw, "OBS(%s)\n", name[g.Fanin[0]])
		}
	}
	return bw.Flush()
}

// benchNames assigns unique textual names to every cell, preferring the
// cell's own name when present.
func benchNames(n *Netlist) []string {
	names := make([]string, n.NumGates())
	seen := make(map[string]bool, n.NumGates())
	for i := range names {
		nm := n.gates[i].Name
		if nm == "" {
			nm = fmt.Sprintf("n%d", i)
		}
		// The fallback (or a duplicate user name) may itself collide
		// with a literal name already emitted — e.g. a cell named "n5"
		// alongside an unnamed cell with ID 5 — which would serialize
		// two declarations of the same net.
		for seen[nm] {
			nm += "_"
		}
		seen[nm] = true
		names[i] = nm
	}
	return names
}

// WriteFile writes the netlist to path in .bench format.
func WriteFile(path string, n *Netlist) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, n); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read parses a .bench format netlist. Cell declarations may appear in
// any order; the reader topologically sorts them during construction and
// reports cycles and undeclared nets as errors.
//
// IDs follow a depth-first walk: declared cells in declaration order,
// each after the cells it reads in pin order, then the OUTPUT and OBS
// sinks in line order. The walk keeps its path on a heap stack, so a
// design of any depth parses in stack space that does not grow with it.
func Read(r io.Reader) (*Netlist, error) {
	var text strings.Builder
	if l, ok := r.(interface{ Len() int }); ok {
		text.Grow(l.Len())
	}
	if _, err := io.Copy(&text, r); err != nil {
		return nil, err
	}
	return parse(text.String())
}

// A parser holds one text's declarations. Every distinct net name is
// interned once into a dense net index; everything else is a slice
// indexed by it, by declaration, or by reference.
type parser struct {
	index map[string]int32 // net name → net index
	names []string         // net index → name, a slice of the text
	decl  []int32          // net index → its declaration, or -1
	decls []declaration    // INPUT and gate lines, in line order
	sinks []declaration    // OUTPUT and OBS lines, in line order
	refs  []int32          // the fanin nets of every gate line, in pin order

	id    []int32 // net index → cell ID, or unbuilt or onPath
	stack []frame // the walk's path, innermost cell last
	arena []int32 // every cell's fanin IDs, in ID order
}

// declaration is one line that declares a cell: the net it drives (for
// a sink, the net it observes) and its fanin nets refs[start:end].
type declaration struct {
	typ        GateType
	net        int32
	start, end int32
	line       int
}

// frame is a cell on the walk's path and the position in refs of the
// next fanin net to visit.
type frame struct {
	decl, next int32
}

// States of a net's id before it holds a cell ID.
const (
	unbuilt = -1
	onPath  = -2
)

// maxHint is the most declarations parse reserves room for before it
// has read one: about 6.6 MB of slices and name index.
const maxHint = 1 << 16

// parse reads the declarations of text in one pass over its lines and
// then builds the netlist from them.
func parse(text string) (*Netlist, error) {
	// Lines and commas bound the declarations and fanin references, but
	// blank and comment lines declare nothing, so the reservation stops
	// at maxHint; past it the slices and the index grow with what the
	// scan finds.
	lines := min(strings.Count(text, "\n")+1, maxHint)
	p := &parser{
		index: make(map[string]int32, lines),
		names: make([]string, 0, lines),
		decl:  make([]int32, 0, lines),
		decls: make([]declaration, 0, lines),
		refs:  make([]int32, 0, min(strings.Count(text, ",")+lines, 2*maxHint)),
	}
	name := "netlist"
	lineNo := 0
	for rest := text; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		lineNo++
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if lineNo == 1 {
				// The comment's first word names the netlist.
				word := strings.TrimLeftFunc(line[1:], unicode.IsSpace)
				if end := strings.IndexFunc(word, unicode.IsSpace); end >= 0 {
					word = word[:end]
				}
				if word != "" {
					name = strings.Clone(word)
				}
			}
			continue
		}
		if err := p.scan(line, lineNo); err != nil {
			return nil, err
		}
	}
	return p.build(name)
}

// scan records the declaration on one non-blank, non-comment line.
func (p *parser) scan(line string, lineNo int) error {
	if net, ok := argument(line, "INPUT("); ok {
		return p.declare(Input, net, lineNo, int32(len(p.refs)))
	}
	if net, ok := argument(line, "OUTPUT("); ok {
		p.sinks = append(p.sinks, declaration{typ: Output, net: p.intern(net), line: lineNo})
		return nil
	}
	if net, ok := argument(line, "OBS("); ok {
		p.sinks = append(p.sinks, declaration{typ: Obs, net: p.intern(net), line: lineNo})
		return nil
	}
	eq := strings.IndexByte(line, '=')
	if eq < 0 {
		return fmt.Errorf("netlist: line %d: cannot parse %s", lineNo, quote(line))
	}
	lhs := strings.TrimSpace(line[:eq])
	rhs := strings.TrimSpace(line[eq+1:])
	open := strings.IndexByte(rhs, '(')
	if open < 0 || !strings.HasSuffix(rhs, ")") {
		return fmt.Errorf("netlist: line %d: cannot parse expression %s", lineNo, quote(rhs))
	}
	t, err := ParseGateType(strings.TrimSpace(rhs[:open]))
	if err != nil {
		return fmt.Errorf("netlist: line %d: %v", lineNo, err)
	}
	start := int32(len(p.refs))
	for args := rhs[open+1 : len(rhs)-1]; ; {
		arg, more, found := strings.Cut(args, ",")
		if arg = strings.TrimSpace(arg); arg != "" {
			p.refs = append(p.refs, p.intern(arg))
		}
		if !found {
			break
		}
		args = more
	}
	return p.declare(t, lhs, lineNo, start)
}

// argument returns the trimmed text of line between prefix and a final
// ")", if line has both.
func argument(line, prefix string) (string, bool) {
	if !strings.HasPrefix(line, prefix) || !strings.HasSuffix(line, ")") {
		return "", false
	}
	return strings.TrimSpace(line[len(prefix) : len(line)-1]), true
}

// intern returns the net index of name, giving it the next one if it is
// new.
func (p *parser) intern(name string) int32 {
	if v, ok := p.index[name]; ok {
		return v
	}
	v := int32(len(p.names))
	p.index[name] = v
	p.names = append(p.names, name)
	p.decl = append(p.decl, -1)
	return v
}

// declare records that the line declares a cell of type t driving net,
// whose fanin nets are refs[start:].
func (p *parser) declare(t GateType, net string, lineNo int, start int32) error {
	v := p.intern(net)
	if p.decl[v] >= 0 {
		return fmt.Errorf("netlist: line %d: duplicate declaration of %s", lineNo, quote(net))
	}
	p.decl[v] = int32(len(p.decls))
	p.decls = append(p.decls, declaration{typ: t, net: v, start: start, end: int32(len(p.refs)), line: lineNo})
	return nil
}

// build adds every declared cell in declaration order, each after the
// cells it reads, then the sinks in line order. Fanin lists are carved
// from one arena, in ID order.
func (p *parser) build(name string) (*Netlist, error) {
	n := &Netlist{Name: name, gates: make([]Gate, 0, len(p.decls)+len(p.sinks))}
	p.arena = make([]int32, 0, len(p.refs)+len(p.sinks))
	p.id = make([]int32, len(p.names))
	for v := range p.id {
		p.id[v] = unbuilt
	}
	for _, d := range p.decls {
		if err := p.walk(n, d.net); err != nil {
			return nil, err
		}
	}
	for _, s := range p.sinks {
		if err := p.walk(n, s.net); err != nil {
			return nil, err
		}
		src := p.id[s.net]
		nm := ""
		if s.typ == Obs {
			nm = "op_" + strconv.Itoa(int(src))
		}
		p.arena = append(p.arena, src)
		if _, err := n.addGate(s.typ, nm, p.fanin(len(p.arena)-1)); err != nil {
			return nil, fmt.Errorf("netlist: line %d: %v", s.line, err)
		}
	}
	n.keepNames()
	return n, nil
}

// walk adds net v's cell unless it is built, after adding every cell it
// reads that is not built yet: the post-order of a recursive depth-first
// walk, with fanin in pin order, kept on p.stack instead of the
// goroutine stack.
func (p *parser) walk(n *Netlist, v int32) error {
	if p.id[v] >= 0 {
		return nil
	}
	if err := p.push(v); err != nil {
		return err
	}
	for len(p.stack) > 0 {
		top := &p.stack[len(p.stack)-1]
		d := &p.decls[top.decl]
		if top.next < d.end {
			f := p.refs[top.next]
			top.next++
			if p.id[f] < 0 {
				if err := p.push(f); err != nil {
					return err
				}
			}
			continue
		}
		p.stack = p.stack[:len(p.stack)-1]
		start := len(p.arena)
		for _, f := range p.refs[d.start:d.end] {
			p.arena = append(p.arena, p.id[f])
		}
		id, err := n.addGate(d.typ, p.names[d.net], p.fanin(start))
		if err != nil {
			return fmt.Errorf("netlist: line %d: %v", d.line, err)
		}
		p.id[d.net] = id
	}
	return nil
}

// fanin returns the arena's IDs from start on as one cell's fanin list,
// capped so that it cannot grow into the next cell's, or nil if there
// are none.
func (p *parser) fanin(start int) []int32 {
	if start == len(p.arena) {
		return nil
	}
	return p.arena[start:len(p.arena):len(p.arena)]
}

// push puts net v on the walk's path, or reports why it cannot be built:
// it was never declared, or it is on the path already.
func (p *parser) push(v int32) error {
	d := p.decl[v]
	if d < 0 {
		return fmt.Errorf("netlist: net %s used but never declared", quote(p.names[v]))
	}
	if p.id[v] == onPath {
		return fmt.Errorf("netlist: combinational cycle through net %s (line %d)", quote(p.names[v]), p.decls[d].line)
	}
	p.id[v] = onPath
	p.stack = append(p.stack, frame{decl: d, next: p.decls[d].start})
	return nil
}

// keepNames copies every cell's name into one string and points the
// cells at it, so the netlist keeps its names but not the text they
// were sliced from.
func (n *Netlist) keepNames() {
	size := 0
	for i := range n.gates {
		size += len(n.gates[i].Name)
	}
	var all strings.Builder
	all.Grow(size)
	for i := range n.gates {
		all.WriteString(n.gates[i].Name)
	}
	rest := all.String()
	for i := range n.gates {
		g := &n.gates[i]
		g.Name, rest = rest[:len(g.Name)], rest[len(g.Name):]
	}
}

// ReadFile parses the .bench file at path.
func ReadFile(path string) (*Netlist, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
