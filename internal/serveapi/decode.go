package serveapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"ftsched/internal/appio"
	"ftsched/internal/certify"
	"ftsched/internal/chaos"
	"ftsched/internal/core"
	"ftsched/internal/runtime"
	"ftsched/internal/sim"
)

// MaxRequestBytes bounds the request bodies the server reads — large
// enough for a batch of ~100k cycles on a 50-process application, small
// enough that a hostile body cannot exhaust memory.
const MaxRequestBytes = 32 << 20

// MaxResponseBytes bounds the response bodies the client reads. A
// dispatch result takes about 125 bytes on the wire for the cruise
// controller, so the ~12 MB response to a 100k-cycle batch fits with
// room to spare, while a hostile or broken server cannot make a client
// allocate without limit.
const MaxResponseBytes = 32 << 20

// MaxTreeSize bounds the per-request synthesis size (FTQSOptions.M) a
// server accepts, so one request cannot monopolise a shared process with
// an absurd tree.
const MaxTreeSize = 4096

// badRequest builds a 400 *Error.
func badRequest(kind, format string, args ...any) *Error {
	return &Error{Code: http.StatusBadRequest, Kind: kind, Message: fmt.Sprintf(format, args...)}
}

// sniffFormat applies the format-sniffing discipline: the body must be a
// JSON object whose "format" field is FormatV1. It mirrors the tree
// decoders — version first, layout second — so v1 bodies keep decoding
// against any future server.
func sniffFormat(data []byte) *Error {
	var env struct {
		Format *string `json:"format"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return badRequest(KindBadRequest, "request body is not a JSON object: %v", err)
	}
	if env.Format == nil {
		return badRequest(KindUnknownFormat, "request carries no format field (want %q)", FormatV1)
	}
	if *env.Format != FormatV1 {
		return badRequest(KindUnknownFormat, "unsupported api format %q (want %q)", *env.Format, FormatV1)
	}
	return nil
}

// decodeInto unmarshals the body into dst, whose format member format
// points at, and applies the format discipline. Unknown fields are
// tolerated (forward compatibility within v1); unknown formats are not.
// The body is decoded once; sniffFormat runs only when that decode fails
// or finds another format, so its verdict — unknown_format wins over a
// malformed payload — and its messages stay those of sniffing first.
func decodeInto(data []byte, dst any, format *string) *Error {
	err := json.Unmarshal(data, dst)
	if err == nil && *format == FormatV1 {
		return nil
	}
	if werr := sniffFormat(data); werr != nil {
		return werr
	}
	return badRequest(KindBadRequest, "decoding request: %v", err)
}

// emptyRaw reports an absent embedded document (missing field or JSON
// null — encoding/json hands both to RawMessage).
func emptyRaw(raw json.RawMessage) bool {
	return len(raw) == 0 || string(raw) == "null"
}

// checkRef validates that a request addresses a tree at all.
func checkRef(ref TreeRef) *Error {
	if ref.TreeKey == "" && emptyRaw(ref.App) {
		return badRequest(KindBadRequest, "request references no tree: set tree_key or embed app")
	}
	return nil
}

// checkOptions bounds wire synthesis options.
func checkOptions(o FTQSOptionsJSON) *Error {
	if o.M > MaxTreeSize {
		return &Error{Code: http.StatusBadRequest, Kind: KindInvalidConfig, Field: "M",
			Message: fmt.Sprintf("tree size M %d exceeds the server bound %d", o.M, MaxTreeSize)}
	}
	if o.Workers < 0 {
		return &Error{Code: http.StatusBadRequest, Kind: KindInvalidConfig, Field: "Workers",
			Message: fmt.Sprintf("Workers must be non-negative (got %d)", o.Workers)}
	}
	return nil
}

// DecodeSynthesizeRequest decodes and validates a synthesis request.
func DecodeSynthesizeRequest(data []byte) (*SynthesizeRequest, *Error) {
	var req SynthesizeRequest
	if werr := decodeInto(data, &req, &req.Format); werr != nil {
		return nil, werr
	}
	if emptyRaw(req.App) {
		return nil, badRequest(KindBadRequest, "synthesize request embeds no app")
	}
	if werr := checkOptions(req.Options); werr != nil {
		return nil, werr
	}
	return &req, nil
}

// DecodeEvalRequest decodes an evaluation request and validates its
// config through sim.MCConfig.Validate — the decoded request carries the
// normalised config, so the server runs exactly what the library would.
func DecodeEvalRequest(data []byte) (*EvalRequest, sim.MCConfig, *Error) {
	var req EvalRequest
	if werr := decodeInto(data, &req, &req.Format); werr != nil {
		return nil, sim.MCConfig{}, werr
	}
	if werr := checkRef(req.TreeRef); werr != nil {
		return nil, sim.MCConfig{}, werr
	}
	if req.Options != nil {
		if werr := checkOptions(*req.Options); werr != nil {
			return nil, sim.MCConfig{}, werr
		}
	}
	cfg, err := req.Config.MCConfig()
	if err != nil {
		return nil, sim.MCConfig{}, WireError(err)
	}
	return &req, cfg, nil
}

// DecodeCertifyRequest decodes a certification request and validates its
// config through certify.Config.Validate.
func DecodeCertifyRequest(data []byte) (*CertifyRequest, certify.Config, *Error) {
	var req CertifyRequest
	if werr := decodeInto(data, &req, &req.Format); werr != nil {
		return nil, certify.Config{}, werr
	}
	if werr := checkRef(req.TreeRef); werr != nil {
		return nil, certify.Config{}, werr
	}
	if req.Options != nil {
		if werr := checkOptions(*req.Options); werr != nil {
			return nil, certify.Config{}, werr
		}
	}
	cfg, err := req.Config.CertifyConfig()
	if err != nil {
		return nil, certify.Config{}, WireError(err)
	}
	return &req, cfg, nil
}

// DecodeChaosRequest decodes a chaos-campaign request and validates its
// config through chaos.Config.Validate.
func DecodeChaosRequest(data []byte) (*ChaosRequest, chaos.Config, *Error) {
	var req ChaosRequest
	if werr := decodeInto(data, &req, &req.Format); werr != nil {
		return nil, chaos.Config{}, werr
	}
	if werr := checkRef(req.TreeRef); werr != nil {
		return nil, chaos.Config{}, werr
	}
	if req.Options != nil {
		if werr := checkOptions(*req.Options); werr != nil {
			return nil, chaos.Config{}, werr
		}
	}
	cfg, err := req.Config.ChaosConfig()
	if err != nil {
		return nil, chaos.Config{}, WireError(err)
	}
	return &req, cfg, nil
}

// DecodeDispatchRequest decodes a batch dispatch request: one scanner
// pass over the body (scanDispatchRequest), or decodeInto when the
// scanner declines. Per-cycle model validation needs the application and
// happens in the server once the tree is resolved.
func DecodeDispatchRequest(data []byte) (*DispatchRequest, *Error) {
	req := scanDispatchRequest(data)
	if req == nil {
		req = new(DispatchRequest)
		if werr := decodeInto(data, req, &req.Format); werr != nil {
			return nil, werr
		}
	}
	if werr := checkDispatch(req); werr != nil {
		return nil, werr
	}
	return req, nil
}

// checkDispatch validates a decoded dispatch request, whichever decoder
// produced it.
func checkDispatch(req *DispatchRequest) *Error {
	if werr := checkRef(req.TreeRef); werr != nil {
		return werr
	}
	if req.Options != nil {
		if werr := checkOptions(*req.Options); werr != nil {
			return werr
		}
	}
	if len(req.Cycles) == 0 {
		return badRequest(KindBadRequest, "dispatch request carries no cycles")
	}
	if req.Workers < 0 {
		return &Error{Code: http.StatusBadRequest, Kind: KindInvalidConfig, Field: "Workers",
			Message: fmt.Sprintf("Workers must be non-negative (got %d)", req.Workers)}
	}
	for i, c := range req.Cycles {
		if len(c.Durations) == 0 {
			return badRequest(KindBadRequest, "cycle %d carries no durations", i)
		}
		if c.FaultsAt != nil && len(c.FaultsAt) != len(c.Durations) {
			return badRequest(KindBadRequest, "cycle %d: %d fault counts for %d durations",
				i, len(c.FaultsAt), len(c.Durations))
		}
	}
	return nil
}

// DecodeReloadRequest decodes a hot-reload request.
func DecodeReloadRequest(data []byte) (*ReloadRequest, *Error) {
	var req ReloadRequest
	if werr := decodeInto(data, &req, &req.Format); werr != nil {
		return nil, werr
	}
	if req.TreeKey == "" {
		return nil, badRequest(KindBadRequest, "reload request names no tree_key")
	}
	if req.Trim != nil && req.Trim.Scenarios <= 0 {
		return nil, &Error{Code: http.StatusBadRequest, Kind: KindInvalidConfig, Field: "Scenarios",
			Message: fmt.Sprintf("trim Scenarios must be positive (got %d)", req.Trim.Scenarios)}
	}
	return &req, nil
}

// WireError maps any library error onto the typed wire error, preserving
// the field names the typed config errors carry. Unknown errors become
// KindInternal — the one kind clients should treat as a server bug.
func WireError(err error) *Error {
	var werr *Error
	if errors.As(err, &werr) {
		return werr
	}
	var mcErr *sim.ConfigError
	if errors.As(err, &mcErr) {
		return &Error{Code: http.StatusBadRequest, Kind: KindInvalidConfig, Field: mcErr.Field, Message: mcErr.Error()}
	}
	var certErr *certify.ConfigError
	if errors.As(err, &certErr) {
		return &Error{Code: http.StatusBadRequest, Kind: KindInvalidConfig, Field: certErr.Field, Message: certErr.Error()}
	}
	var chaosErr *chaos.ConfigError
	if errors.As(err, &chaosErr) {
		return &Error{Code: http.StatusBadRequest, Kind: KindInvalidConfig, Field: chaosErr.Field, Message: chaosErr.Error()}
	}
	var decErr *appio.DecodeError
	if errors.As(err, &decErr) {
		return &Error{Code: http.StatusBadRequest, Kind: KindInvalidApp, Message: decErr.Error()}
	}
	var sampleErr *sim.SampleError
	if errors.As(err, &sampleErr) {
		return &Error{Code: http.StatusBadRequest, Kind: KindBadRequest, Message: sampleErr.Error()}
	}
	var scenarioErr *runtime.ScenarioSizeError
	if errors.As(err, &scenarioErr) {
		return &Error{Code: http.StatusBadRequest, Kind: KindBadRequest, Message: scenarioErr.Error()}
	}
	if errors.Is(err, core.ErrUnschedulable) {
		return &Error{Code: http.StatusUnprocessableEntity, Kind: KindUnschedulable, Message: err.Error()}
	}
	return &Error{Code: http.StatusInternalServerError, Kind: KindInternal, Message: err.Error()}
}
