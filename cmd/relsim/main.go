// Command relsim is the command-line front end of the library: it
// generates the synthetic evaluation datasets, applies the canned schema
// transformations, and answers similarity queries over graph files.
//
// Usage:
//
//	relsim gen -dataset dblp|dblp-small|wsu|biomed|biomed-small|mas -out g.jsonl
//	relsim transform -in g.jsonl -t dblp2sigm|dblp2sigmx|wsuc2alch|biomedt -out t.jsonl
//	relsim query -in g.jsonl -pattern "r-a.r-a-" -query proc3 [-alg search|relsim|pathsim|hetesim|rwr|simrank] [-type proc] [-top 10]
//	relsim stats -in g.jsonl
package main

import (
	"flag"
	"fmt"
	"os"

	"relsim"
	"relsim/internal/datasets"
	"relsim/internal/graph"
	"relsim/internal/mapping"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = runGen(os.Args[2:])
	case "transform":
		err = runTransform(os.Args[2:])
	case "query":
		err = runQuery(os.Args[2:])
	case "stats":
		err = runStats(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "relsim:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  relsim gen -dataset dblp|dblp-small|wsu|biomed|biomed-small|mas -out g.jsonl
  relsim transform -in g.jsonl -t dblp2sigm|dblp2sigmx|wsuc2alch|biomedt -out t.jsonl
  relsim query -in g.jsonl -pattern P -query NAME [-alg search|relsim|pathsim|hetesim|rwr|simrank] [-type TYPE] [-top N]
  relsim stats -in g.jsonl`)
}

func loadGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.Read(f)
}

func saveGraph(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.Write(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func datasetByName(name string) (datasets.Dataset, error) {
	return datasets.ByName(name)
}

func schemaFor(name string) *relsim.Schema {
	return datasets.SchemaByName(name)
}

func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	name := fs.String("dataset", "dblp-small", "dataset to generate")
	out := fs.String("out", "", "output file (JSON lines)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("gen: -out is required")
	}
	ds, err := datasetByName(*name)
	if err != nil {
		return err
	}
	if err := saveGraph(*out, ds.Graph); err != nil {
		return err
	}
	s := ds.Graph.Snapshot()
	fmt.Printf("wrote %s: %d nodes, %d edges, labels %v\n", *out, s.NumNodes(), s.NumEdges(), s.Labels())
	return nil
}

func transformByName(name string) (mapping.Transformation, error) {
	switch name {
	case "dblp2sigm":
		return datasets.DBLP2SIGM(), nil
	case "dblp2sigmx":
		return datasets.DBLP2SIGMX(), nil
	case "wsuc2alch":
		return datasets.WSUC2ALCH(), nil
	case "biomedt":
		return datasets.BioMedT(), nil
	}
	return mapping.Transformation{}, fmt.Errorf("unknown transformation %q", name)
}

func runTransform(args []string) error {
	fs := flag.NewFlagSet("transform", flag.ExitOnError)
	in := fs.String("in", "", "input graph file")
	out := fs.String("out", "", "output graph file")
	tname := fs.String("t", "", "transformation name")
	fs.Parse(args)
	if *in == "" || *out == "" || *tname == "" {
		return fmt.Errorf("transform: -in, -out and -t are required")
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	t, err := transformByName(*tname)
	if err != nil {
		return err
	}
	h := t.Apply(g)
	if err := saveGraph(*out, h); err != nil {
		return err
	}
	fmt.Printf("applied %s: %d nodes, %d edges\n", t.Name, h.NumNodes(), h.Snapshot().NumEdges())
	return nil
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	in := fs.String("in", "", "input graph file")
	pat := fs.String("pattern", "", "RRE relationship pattern")
	q := fs.String("query", "", "query node name")
	alg := fs.String("alg", "search", "algorithm: search|relsim|pathsim|hetesim|rwr|simrank")
	typ := fs.String("type", "", "restrict answers to this node type")
	top := fs.Int("top", 10, "answers to print")
	schemaName := fs.String("schema", "", "built-in schema for Algorithm-1 expansion (dblp|wsu|biomed)")
	fs.Parse(args)
	if *in == "" || *q == "" {
		return fmt.Errorf("query: -in and -query are required")
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	node, ok := g.NodeByName(*q)
	if !ok {
		return fmt.Errorf("query node %q not found", *q)
	}
	eng := relsim.NewEngine(g, schemaFor(*schemaName))
	var candidates []relsim.NodeID
	if *typ != "" {
		candidates = g.NodesOfType(*typ)
	}

	var rank relsim.Ranking
	switch *alg {
	case "rwr":
		rank = eng.RWR(node.ID, candidates)
	case "simrank":
		rank = eng.SimRank(node.ID, candidates)
	default:
		if *pat == "" {
			return fmt.Errorf("query: -pattern is required for %s", *alg)
		}
		p, perr := relsim.ParsePattern(*pat)
		if perr != nil {
			return perr
		}
		switch *alg {
		case "search":
			rank, err = eng.SearchPattern(p, node.ID, relsim.WithCandidates(candidates))
		case "relsim":
			rank = eng.RelSim(p, node.ID, candidates)
		case "pathsim":
			rank, err = eng.PathSim(p, node.ID, candidates)
		case "hetesim":
			rank = eng.HeteSim(p, node.ID, candidates)
		default:
			return fmt.Errorf("unknown algorithm %q", *alg)
		}
		if err != nil {
			return err
		}
	}

	fmt.Printf("top %d answers for %s (%s):\n", *top, node.Name, *alg)
	for i := 0; i < rank.Len() && i < *top; i++ {
		n := g.Node(rank.IDs[i])
		name := n.Name
		if name == "" {
			name = fmt.Sprintf("node%d", n.ID)
		}
		fmt.Printf("%2d. %-20s %.6f\n", i+1, name, rank.Scores[i])
	}
	if rank.Len() == 0 {
		fmt.Println("(no answers)")
	}
	return nil
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("in", "", "input graph file")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("stats: -in is required")
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	s := g.Snapshot()
	fmt.Printf("nodes: %d\nedges: %d\nlabels: %v\n", s.NumNodes(), s.NumEdges(), s.Labels())
	types := map[string]int{}
	for i := 0; i < s.NumNodes(); i++ {
		types[s.Node(relsim.NodeID(i)).Type]++
	}
	for t, c := range types {
		if t == "" {
			t = "(untyped)"
		}
		fmt.Printf("  %-12s %d\n", t, c)
	}
	return nil
}
