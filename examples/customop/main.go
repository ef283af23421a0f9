// Customop shows the operator-template-file workflow of the paper's
// preprocessing phase: operators are written as text in the hybrid
// intermediate description ("the template of the operator is a string
// stored in the operator template file"), parsed into the operator list and
// dictionary, and optimized per processor.
package main

import (
	"fmt"
	"log"

	"hef"
)

// templates is the operator template file. A FNV-style hash with a
// table lookup: it mixes compute statements with a gather into an
// L1-resident table, so neither the purely scalar nor the purely SIMD
// implementation is obviously right — exactly the case HEF decides by
// testing.
const templates = `
# custom operators, hybrid intermediate description
template fnvmix u64 (in:stream, out:wstream, tab:random[2048]) {
    const prime = 0x100000001b3;
    const bmask = 0xff;
    x  = load(in);
    h1 = mul(x, prime);
    s1 = srl(h1, 17);
    m1 = xor(h1, s1);
    b1 = and(m1, bmask);
    g  = gather(tab, b1);
    h2 = xor(m1, g);
    store(out, h2);
}

template saxpy u64 (xs:stream, ys:stream, out:wstream) {
    const a = 31;
    x = load(xs);
    y = load(ys);
    ax = mul(x, a);
    r = add(ax, y);
    store(out, r);
}
`

func main() {
	file, err := hef.ParseTemplates(templates)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("operator list: %v\n\n", file.List)

	fw, err := hef.New("silver")
	if err != nil {
		log.Fatal(err)
	}

	for _, name := range file.List {
		tmpl, err := file.Get(name)
		if err != nil {
			log.Fatal(err)
		}
		opt, err := fw.OptimizeOperator(tmpl)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: initial %v -> optimal %v (%.3f ns/elem, %d/%d nodes tested)\n",
			name, opt.Initial, opt.Node, opt.SecondsPerElem()*1e9,
			opt.Search.Tested, opt.Search.SpaceSize)

		// Show how the winner compares against the end list's worst node.
		worst := opt.Search.BestSeconds
		for _, st := range opt.Search.Trace {
			if st.Seconds > worst {
				worst = st.Seconds
			}
		}
		fmt.Printf("   best %.3f ns/elem vs worst tested %.3f ns/elem (%.2fx spread)\n\n",
			opt.Search.BestSeconds*1e9, worst*1e9, worst/opt.Search.BestSeconds)
	}

	// Print the generated code of the first operator at its optimum.
	tmpl, _ := file.Get(file.List[0])
	opt, err := fw.OptimizeOperator(tmpl)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated code for %s at %v:\n%s", tmpl.Name, opt.Node, opt.Source())
}
