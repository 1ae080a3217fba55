package appio

import (
	"fmt"
	"io"

	"ftsched/internal/core"
)

// WriteTreeDOT renders a quasi-static tree: one node per schedule, one edge
// per switching arc, labelled with the guarded process, the arc kind and
// the completion-time interval.
func WriteTreeDOT(w io.Writer, tree *core.Tree) error {
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=TB;\n  node [shape=box];\n",
		tree.App.Name()+"-tree"); err != nil {
		return err
	}
	for id := range tree.Nodes {
		n := &tree.Nodes[id]
		if _, err := fmt.Fprintf(w, "  S%d [label=\"S%d (k=%d)\\n%s\"];\n",
			id, id, n.KRem, n.Schedule.Format(tree.App)); err != nil {
			return err
		}
	}
	for id := range tree.Nodes {
		n := &tree.Nodes[id]
		for _, a := range tree.NodeArcs(core.NodeID(id)) {
			proc := tree.App.Proc(n.Schedule.Entries[a.Pos].Proc).Name
			if _, err := fmt.Fprintf(w, "  S%d -> S%d [label=\"%s %s [%d,%d]\"];\n",
				id, a.Child, proc, a.Kind, a.Lo, a.Hi); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
