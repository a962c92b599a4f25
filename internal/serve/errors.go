package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// apiError is the structured error clients receive. It is built from
// catalogue knowledge (known design ids, policy names, ...) rather than
// by forwarding internal error chains, so package prefixes, file paths,
// and implementation details never leak to HTTP clients (pinned by
// TestRunErrorsAreStructured).
type apiError struct {
	status  int    // HTTP status; not serialized
	Field   string `json:"field,omitempty"`
	Message string `json:"message"`
}

func (e *apiError) Error() string { return e.Message }

// badField builds a 400 for one request field.
func badField(field, format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, Field: field, Message: fmt.Sprintf(format, args...)}
}

// writeError emits the structured JSON error body.
func writeError(w http.ResponseWriter, e *apiError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.status)
	json.NewEncoder(w).Encode(struct {
		Error *apiError `json:"error"`
	}{e})
}

// writeJSON emits a 200 JSON body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// decodeBody strictly decodes a JSON request body into dst, mapping the
// decoder's error zoo to field-level 400s: syntax errors, wrong-typed
// fields, unknown fields, and trailing garbage each get a message that
// names the problem without echoing Go type names or package paths.
func decodeBody(r *http.Request, dst any) *apiError {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var typeErr *json.UnmarshalTypeError
		var syntaxErr *json.SyntaxError
		var maxErr *http.MaxBytesError
		switch {
		case errors.As(err, &typeErr):
			return badField(typeErr.Field, "wrong JSON type for field %q", typeErr.Field)
		case errors.As(err, &syntaxErr), errors.Is(err, io.ErrUnexpectedEOF):
			return badField("", "malformed JSON body")
		case errors.Is(err, io.EOF):
			return badField("", "empty request body; expected a JSON run request")
		case errors.As(err, &maxErr):
			return &apiError{status: http.StatusRequestEntityTooLarge, Message: "request body too large"}
		case strings.HasPrefix(err.Error(), "json: unknown field "):
			f := strings.Trim(strings.TrimPrefix(err.Error(), "json: unknown field "), `"`)
			return badField(f, "unknown field %q", f)
		default:
			return badField("", "malformed JSON body")
		}
	}
	if dec.More() {
		return badField("", "unexpected data after JSON body")
	}
	return nil
}
