// Package serveapi is the versioned wire contract of the ftserved
// scheduling service: the JSON request and response DTOs shared by the
// server (internal/serve), the public client package, and the remote modes
// of the command-line tools.
//
// # Format discipline
//
// Every request body carries a "format" field tagged FormatV1
// ("ftsched-api/v1") — the same format-sniffing discipline as the tree
// encodings (ftsched-tree/v2, /v3): decoders reject any other format with
// a typed *Error whose unknown_format kind wins over any problem in the
// payload, so a future v2 can change any layout while v1 bodies keep
// decoding forever. Responses echo the format. Unknown fields are ignored
// (forward compatibility within a version); unknown formats are not.
//
// # Dispatch codec
//
// The dispatch batch request and response are decoded by single-pass
// scanners and encoded by single-pass appenders (codec.go). A scanner
// either returns exactly what encoding/json would or declines the body,
// which then goes through encoding/json unchanged; an appender either
// writes exactly encoding/json's bytes or declines the value, which
// encoding/json then encodes. ReadBody reads either body at its declared
// length within the MaxRequestBytes / MaxResponseBytes bounds.
//
// # Wire types
//
// Library types are the wire types: core.FTQSOptions, sim.MCConfig,
// sim.MCStats, certify.Config, certify.Report and chaos.Report carry their
// wire names as json tags and travel as themselves. The exceptions are
// ChaosConfigJSON (an empty policy means shed-soft on the wire, the zero
// chaos.Config policy strict), TrimJSON (it exposes only Scenarios and
// Seed of sim.TrimConfig) and the dispatch projections CycleJSON and
// CycleResultJSON, which the single-pass codec reads.
//
// # Validation discipline
//
// Request decoding runs the library's Validate — core.FTQSOptions,
// sim.MCConfig, certify.Config, chaos.Config — on the decoded payload and
// maps its typed error onto the wire *Error with Kind KindInvalidConfig
// and the offending field name, so the CLI, the library and the wire
// reject bad input identically.
//
// # Identifier discipline
//
// Processes are referenced by integer ProcessID on the wire (the index in
// the application's process order, which is stable for a given application
// encoding); tree nodes by NodeID. Scenario durations are positional
// arrays indexed by ProcessID, mirroring runtime.Scenario. Only the
// counterexample embedded in a failed certification uses the name-keyed
// appio counterexample format, because it is replayed through
// ftsim -replay.
package serveapi
