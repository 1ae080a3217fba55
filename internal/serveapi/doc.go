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
// The dispatch batch request and response are decoded by a single-pass
// scanner (codec.go) that either returns exactly what encoding/json would
// or declines the body, which then goes through encoding/json unchanged.
//
// # Validation discipline
//
// Request decoding reuses the library's config validation verbatim:
// sim.MCConfig.Validate, certify.Config.Validate and chaos.Config.Validate
// run on the decoded payload, and their typed errors
// (*sim.ConfigError, *certify.ConfigError, *chaos.ConfigError) are mapped
// onto the wire *Error with Kind KindInvalidConfig and the offending field
// name — so the CLI, the library and the wire reject bad input
// identically.
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
