package appio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/schedule"
)

// This file persists quasi-static trees. A deployment synthesises the tree
// off-line (host tooling), stores it, and the embedded online scheduler
// loads the flat tables; DecodeTree re-validates structure against the
// application and the caller should run core.VerifyTree afterwards for the
// full safety audit (the ftsched CLI does).
//
// One writer exists: EncodeTreeCompact (compact.go), which tags its output
// v2, v3 or v4 to fit the application — v3 adds the platform and the
// process→core mapping for heterogeneous deployments, v4 additionally the
// recovery model. DecodeTree reads those and the original self-describing
// v1 JSON, which nothing writes any more but existing files still use; it
// detects the format from the leading "format" field (absent in v1). v1
// and v2 files bind only to canonically-mapped (single-core) applications,
// because a tree's guard bounds bake in the platform's scaled timing, and
// only v4 files bind to applications with a non-canonical recovery model,
// because the bounds likewise bake in per-attempt and per-fault recovery
// costs.

// jsonTree and its parts are the v1 layout, read by decodeTreeV1.
type jsonTree struct {
	App   string     `json:"app"`
	K     int        `json:"k"`
	Nodes []jsonNode `json:"nodes"`
}

type jsonNode struct {
	ID             int         `json:"id"`
	Parent         int         `json:"parent"` // -1 for the root
	SwitchPos      int         `json:"switchPos"`
	KRem           int         `json:"kRem"`
	Depth          int         `json:"depth"`
	DroppedOnFault string      `json:"droppedOnFault,omitempty"`
	Entries        []jsonEntry `json:"entries"`
	Arcs           []jsonArc   `json:"arcs,omitempty"`
}

type jsonEntry struct {
	Proc       string `json:"proc"`
	Recoveries int    `json:"recoveries,omitempty"`
}

type jsonArc struct {
	Pos   int        `json:"pos"`
	Kind  string     `json:"kind"`
	Lo    model.Time `json:"lo"`
	Hi    model.Time `json:"hi"`
	Gain  float64    `json:"gain"`
	Child int        `json:"child"`
}

func kindFromString(s string) (core.ArcKind, error) {
	switch s {
	case "completion":
		return core.Completion, nil
	case "fault-recovered":
		return core.FaultRecovered, nil
	case "fault-dropped":
		return core.FaultDropped, nil
	default:
		return 0, fmt.Errorf("appio: unknown arc kind %q", s)
	}
}

// DecodeTree reads a tree in any format and rebinds it to the
// application. Structural errors (unknown processes, dangling references,
// ID mismatches, out-of-range times, non-finite gains) are rejected here
// with a *DecodeError carrying the offending position; run core.VerifyTree
// on the result for the safety audit.
func DecodeTree(r io.Reader, app *model.Application) (*core.Tree, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, &DecodeError{Msg: "reading tree", Err: err}
	}
	var probe struct {
		Format string `json:"format"`
	}
	// A best-effort probe: v1 files have no "format" member and leave the
	// probe empty; anything unparseable falls through to the full decoder
	// for a precise error.
	_ = json.Unmarshal(data, &probe)
	switch probe.Format {
	case "":
		return decodeTreeV1(data, app)
	case compactTreeFormat, compactTreeFormatV3, compactTreeFormatV4:
		return decodeTreeCompact(data, app)
	default:
		return nil, &DecodeError{Path: "format", Msg: fmt.Sprintf("unsupported tree format %q", probe.Format)}
	}
}

// treeBuilder collects per-node data during decoding and flattens it into
// the arena representation, normalising arcs into the canonical order.
type treeBuilder struct {
	nodes []core.Node
	arcs  [][]core.Arc
}

func (b *treeBuilder) build(app *model.Application) *core.Tree {
	total := 0
	for _, as := range b.arcs {
		total += len(as)
	}
	t := &core.Tree{
		App:   app,
		Nodes: b.nodes,
		Arcs:  make([]core.Arc, 0, total),
	}
	for i := range t.Nodes {
		core.SortArcs(b.arcs[i])
		t.Nodes[i].ArcStart = int32(len(t.Arcs))
		t.Arcs = append(t.Arcs, b.arcs[i]...)
		t.Nodes[i].ArcEnd = int32(len(t.Arcs))
	}
	return t
}

func decodeTreeV1(data []byte, app *model.Application) (*core.Tree, error) {
	if app.HasPlatform() && !app.Platform().IsCanonical() {
		return nil, &DecodeError{Msg: fmt.Sprintf("a v1 tree predates the application's platform (%s); re-synthesise for the mapped application", app.Platform())}
	}
	if app.HasRecovery() {
		return nil, &DecodeError{Msg: fmt.Sprintf("a v1 tree predates the application's recovery model (%s); re-synthesise for it", app.Recovery())}
	}
	var jt jsonTree
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jt); err != nil {
		return nil, &DecodeError{Msg: "invalid tree JSON", Err: err}
	}
	if jt.App != app.Name() {
		return nil, &DecodeError{Path: "app", Msg: fmt.Sprintf("tree was synthesised for application %q, not %q", jt.App, app.Name())}
	}
	if jt.K != app.K() {
		return nil, &DecodeError{Path: "k", Msg: fmt.Sprintf("tree assumes k=%d, application has k=%d", jt.K, app.K())}
	}
	if len(jt.Nodes) == 0 {
		return nil, &DecodeError{Path: "nodes", Msg: "tree has no nodes"}
	}
	b := &treeBuilder{
		nodes: make([]core.Node, len(jt.Nodes)),
		arcs:  make([][]core.Arc, len(jt.Nodes)),
	}
	for i, jn := range jt.Nodes {
		if jn.ID != i {
			return nil, &DecodeError{Path: fmt.Sprintf("nodes[%d].id", i), Msg: fmt.Sprintf("carries ID %d; IDs must be dense and ordered", jn.ID)}
		}
		n := &b.nodes[i]
		n.SwitchPos = jn.SwitchPos
		n.KRem = jn.KRem
		n.Depth = jn.Depth
		n.DroppedOnFault = model.NoProcess
		n.Parent = core.NoNode
		if jn.DroppedOnFault != "" {
			id := app.IDByName(jn.DroppedOnFault)
			if id == model.NoProcess {
				return nil, &DecodeError{Path: fmt.Sprintf("nodes[%d].droppedOnFault", i), Msg: fmt.Sprintf("unknown process %q", jn.DroppedOnFault)}
			}
			n.DroppedOnFault = id
		}
		entries := make([]schedule.Entry, 0, len(jn.Entries))
		for j, je := range jn.Entries {
			id := app.IDByName(je.Proc)
			if id == model.NoProcess {
				return nil, &DecodeError{Path: fmt.Sprintf("nodes[%d].entries[%d].proc", i, j), Msg: fmt.Sprintf("unknown process %q", je.Proc)}
			}
			if je.Recoveries < 0 {
				return nil, &DecodeError{Path: fmt.Sprintf("nodes[%d].entries[%d].recoveries", i, j), Msg: "negative recovery budget"}
			}
			entries = append(entries, schedule.Entry{Proc: id, Recoveries: je.Recoveries})
		}
		n.Schedule = &schedule.FSchedule{Entries: entries}
	}
	for i, jn := range jt.Nodes {
		n := &b.nodes[i]
		if jn.Parent >= 0 {
			if jn.Parent >= len(b.nodes) {
				return nil, &DecodeError{Path: fmt.Sprintf("nodes[%d].parent", i), Msg: fmt.Sprintf("parent %d out of range", jn.Parent)}
			}
			n.Parent = core.NodeID(jn.Parent)
		} else if i != 0 {
			return nil, &DecodeError{Path: fmt.Sprintf("nodes[%d].parent", i), Msg: "no parent but not the root"}
		}
		for j, ja := range jn.Arcs {
			kind, err := kindFromString(ja.Kind)
			if err != nil {
				return nil, &DecodeError{Path: fmt.Sprintf("nodes[%d].arcs[%d].kind", i, j), Msg: "unknown arc kind", Err: err}
			}
			if ja.Child < 0 || ja.Child >= len(b.nodes) {
				return nil, &DecodeError{Path: fmt.Sprintf("nodes[%d].arcs[%d].child", i, j), Msg: fmt.Sprintf("arc child %d out of range", ja.Child)}
			}
			// Guard bounds may be inverted (trimming's disable marker) but
			// each endpoint must be an in-range time.
			if derr := checkDecodedTime(fmt.Sprintf("nodes[%d].arcs[%d].lo", i, j), ja.Lo); derr != nil {
				return nil, derr
			}
			if derr := checkDecodedTime(fmt.Sprintf("nodes[%d].arcs[%d].hi", i, j), ja.Hi); derr != nil {
				return nil, derr
			}
			if derr := checkDecodedGain(fmt.Sprintf("nodes[%d].arcs[%d].gain", i, j), ja.Gain); derr != nil {
				return nil, derr
			}
			b.arcs[i] = append(b.arcs[i], core.Arc{
				Pos: ja.Pos, Kind: kind, Lo: ja.Lo, Hi: ja.Hi,
				Gain: ja.Gain, Child: core.NodeID(ja.Child),
			})
		}
	}
	return b.build(app), nil
}
