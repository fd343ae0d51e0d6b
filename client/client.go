// Package client is the typed Go client of the seqrep HTTP server
// (cmd/seqserved, internal/server). It speaks the JSON wire types of
// package api and maps non-2xx responses onto *APIError values, so
// callers branch on status codes without touching HTTP plumbing:
//
//	c := client.New("http://localhost:8080")
//	if _, err := c.Ingest(ctx, api.IngestRequest{ID: "ecg1", Values: vals}); err != nil { ... }
//	res, err := c.Query(ctx, "MATCH DISTANCE LIKE ecg1 METRIC l2 EPS 3")
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"seqrep/api"
)

// APIError is any non-2xx server response.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Message is the server's error text.
	Message string
	// RetryAfter is the server's Retry-After header in whole seconds (0
	// when absent). Admission-control 429s always carry one; the retry
	// loop honors it as a backoff floor.
	RetryAfter int
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.StatusCode, e.Message)
}

// IsNotFound reports a 404 (unknown sequence id).
func (e *APIError) IsNotFound() bool { return e.StatusCode == http.StatusNotFound }

// IsConflict reports a 409 (duplicate sequence id, or an endpoint the
// server is not configured for).
func (e *APIError) IsConflict() bool { return e.StatusCode == http.StatusConflict }

// IsOverloaded reports a 429: the server's admission queue is full and
// RetryAfter says when to come back.
func (e *APIError) IsOverloaded() bool { return e.StatusCode == http.StatusTooManyRequests }

// IsUnavailable reports a 503: the server is degraded (storage-fault
// read-only mode) or otherwise refusing service.
func (e *APIError) IsUnavailable() bool { return e.StatusCode == http.StatusServiceUnavailable }

// Client talks to one seqrep server. The zero value is not usable; create
// with New. Safe for concurrent use.
type Client struct {
	base        string
	http        *http.Client
	retryPolicy RetryPolicy
	breaker     *breaker // nil when disabled
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles) for the default bounded-timeout transport.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// New builds a client for the server at baseURL (e.g.
// "http://localhost:8080"). Unless overridden, the client uses a
// transport with bounded dial/TLS/response-header timeouts
// (WithHTTPClient) and retries transient failures with jittered backoff
// under a circuit breaker (WithRetryPolicy).
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:        strings.TrimRight(baseURL, "/"),
		http:        defaultHTTPClient(),
		retryPolicy: RetryPolicy{}.withDefaults(),
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.retryPolicy.MaxAttempts > 0 && c.retryPolicy.BreakerThreshold > 0 {
		c.breaker = &breaker{
			threshold: c.retryPolicy.BreakerThreshold,
			cooldown:  c.retryPolicy.BreakerCooldown,
		}
	}
	return c
}

// do issues one request under the retry policy and decodes the response
// into out (ignored when nil). Non-2xx responses become *APIError.
// okCodes lists the statuses treated as success; empty means any 2xx.
// It returns the attempt count so callers can recognize
// success-via-earlier-attempt shapes (Ingest's retried 409).
func (c *Client) do(ctx context.Context, class idemClass, method, path string, body, out any, okCodes ...int) (int, error) {
	var blob []byte
	if body != nil {
		var err error
		if blob, err = json.Marshal(body); err != nil {
			return 0, fmt.Errorf("client: encoding request: %w", err)
		}
	}
	return c.retry(ctx, class, func(ctx context.Context) error {
		return c.attempt(ctx, method, path, blob, out, okCodes...)
	})
}

// attempt issues exactly one request.
func (c *Client) attempt(ctx context.Context, method, path string, blob []byte, out any, okCodes ...int) error {
	var rd io.Reader
	if blob != nil {
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if blob != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	res, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	defer res.Body.Close()
	ok := res.StatusCode >= 200 && res.StatusCode < 300
	if len(okCodes) > 0 {
		ok = false
		for _, code := range okCodes {
			if res.StatusCode == code {
				ok = true
				break
			}
		}
	}
	if !ok {
		return apiErrorFrom(res)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(res.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}

// apiErrorFrom drains a non-2xx response into an *APIError, capturing
// the Retry-After header when present.
func apiErrorFrom(res *http.Response) *APIError {
	var apiErr api.ErrorResponse
	msg := ""
	if blob, readErr := io.ReadAll(io.LimitReader(res.Body, 1<<16)); readErr == nil {
		if json.Unmarshal(blob, &apiErr) == nil && apiErr.Error != "" {
			msg = apiErr.Error
		} else {
			msg = strings.TrimSpace(string(blob))
		}
	}
	out := &APIError{StatusCode: res.StatusCode, Message: msg}
	if ra := res.Header.Get("Retry-After"); ra != "" {
		if sec, err := strconv.Atoi(ra); err == nil && sec > 0 {
			out.RetryAfter = sec
		}
	}
	return out
}

// Query executes one query-language statement.
func (c *Client) Query(ctx context.Context, statement string) (*api.QueryResponse, error) {
	var out api.QueryResponse
	if _, err := c.do(ctx, idemSafe, http.MethodPost, "/v1/query", api.QueryRequest{Query: statement}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// QueryStream is an open /v1/query/stream response: an iterator over the
// statement's item frames, plus the header and trailer metadata. Close it
// when done (breaking out of Frames early is fine — Close aborts the
// stream, which cancels the server-side query).
type QueryStream struct {
	body      io.ReadCloser
	rd        *bufio.Reader
	canonical string
	trailer   *api.StreamFrame
	err       error
	done      bool
}

// StreamQuery executes one statement over /v1/query/stream: similarity
// matches arrive incrementally (nearest-first under TOP n BY DISTANCE),
// so bounded or abandoned queries never pay for the full answer. The
// returned stream has already consumed the header frame; iterate Frames
// (or call Next) for the items, then inspect Trailer.
//
// Statements carrying WITHIN ERROR / APPROX answer progressively: item
// frames then carry Refine — a tier-tagged error band around one
// record's true distance that only ever tightens — and final accepted
// records arrive with Refine and Match set together. Closing the stream
// once every band is tight enough (see api.RefineFrame.Width) abandons
// the remaining refinement work on the server.
func (c *Client) StreamQuery(ctx context.Context, statement string) (*QueryStream, error) {
	blob, err := json.Marshal(api.QueryRequest{Query: statement})
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	// Only stream setup retries: once the header frame is in, frames have
	// been delivered and a mid-stream failure is the caller's to handle.
	var qs *QueryStream
	_, err = c.retry(ctx, idemSafe, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/query/stream", bytes.NewReader(blob))
		if err != nil {
			return fmt.Errorf("client: %w", err)
		}
		req.Header.Set("Content-Type", "application/json")
		res, err := c.http.Do(req)
		if err != nil {
			return fmt.Errorf("client: %w", err)
		}
		if res.StatusCode != http.StatusOK {
			defer res.Body.Close()
			return apiErrorFrom(res)
		}
		s := &QueryStream{body: res.Body, rd: bufio.NewReader(res.Body)}
		header, err := s.readFrame()
		if err != nil {
			s.Close()
			return err
		}
		if header == nil || header.Canonical == "" {
			s.Close()
			return fmt.Errorf("client: stream began without a header frame")
		}
		s.canonical = header.Canonical
		qs = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	return qs, nil
}

// readFrame decodes one NDJSON line, or returns (nil, nil) at EOF.
func (s *QueryStream) readFrame() (*api.StreamFrame, error) {
	line, err := s.rd.ReadBytes('\n')
	if len(line) == 0 {
		if err == io.EOF {
			return nil, nil
		}
		return nil, fmt.Errorf("client: reading stream: %w", err)
	}
	var f api.StreamFrame
	if jsonErr := json.Unmarshal(line, &f); jsonErr != nil {
		return nil, fmt.Errorf("client: decoding stream frame: %w", jsonErr)
	}
	return &f, nil
}

// Canonical returns the statement's canonical form from the header frame.
func (s *QueryStream) Canonical() string { return s.canonical }

// Next returns the next item frame, or (nil, nil) when the stream ended
// normally (Trailer is then available). A server-reported mid-stream
// failure surfaces as an *APIError; transport failures as other errors.
func (s *QueryStream) Next() (*api.StreamFrame, error) {
	if s.done || s.err != nil {
		return nil, s.err
	}
	f, err := s.readFrame()
	if err != nil {
		s.err = err
		return nil, err
	}
	switch {
	case f == nil:
		s.done = true
		s.err = fmt.Errorf("client: stream ended without a trailer frame")
		return nil, s.err
	case f.Error != "":
		s.done = true
		s.err = &APIError{StatusCode: http.StatusOK, Message: f.Error}
		return nil, s.err
	case f.Done:
		s.done = true
		s.trailer = f
		return nil, nil
	}
	return f, nil
}

// Frames iterates the item frames; a non-nil error (if any) is the final
// pair. Breaking out of the loop early is allowed — follow with Close.
func (s *QueryStream) Frames() iter.Seq2[*api.StreamFrame, error] {
	return func(yield func(*api.StreamFrame, error) bool) {
		for {
			f, err := s.Next()
			if err != nil {
				yield(nil, err)
				return
			}
			if f == nil {
				return
			}
			if !yield(f, nil) {
				return
			}
		}
	}
}

// Trailer returns the stream's trailer frame (kind, stats, generation),
// or nil before the stream has been fully consumed.
func (s *QueryStream) Trailer() *api.StreamFrame { return s.trailer }

// Close releases the stream. Closing before the trailer aborts the HTTP
// response, which the server observes as a client disconnect and cancels
// the running query.
func (s *QueryStream) Close() error { return s.body.Close() }

// Ingest stores one sequence. Ingest is idempotent under retries: when
// an attempt's response is lost and the retry answers 409 (duplicate
// id), an earlier attempt committed the record — the call returns
// success with Duplicate set rather than surfacing the conflict. A 409
// on the first attempt is a genuine conflict and still errors.
func (c *Client) Ingest(ctx context.Context, item api.IngestRequest) (*api.IngestResponse, error) {
	var out api.IngestResponse
	attempts, err := c.do(ctx, idemIngest, http.MethodPost, "/v1/ingest", item, &out)
	if err != nil {
		var ae *APIError
		if attempts > 1 && errors.As(err, &ae) && ae.StatusCode == http.StatusConflict {
			return &api.IngestResponse{ID: item.ID, Duplicate: true}, nil
		}
		return nil, err
	}
	return &out, nil
}

// IngestBatch stores many sequences through the server's worker pool.
// Items are independent: a partial failure (HTTP 207) is NOT an error
// here — inspect BatchResponse.Failed for the per-item outcomes.
func (c *Client) IngestBatch(ctx context.Context, items []api.IngestRequest) (*api.BatchResponse, error) {
	var out api.BatchResponse
	_, err := c.do(ctx, idemNone, http.MethodPost, "/v1/ingest/batch", api.BatchRequest{Items: items}, &out,
		http.StatusOK, http.StatusMultiStatus)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Record fetches the stored state of one sequence.
func (c *Client) Record(ctx context.Context, id string) (*api.RecordResponse, error) {
	var out api.RecordResponse
	if _, err := c.do(ctx, idemSafe, http.MethodGet, "/v1/records/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Remove deletes one sequence. Removal is not idempotent (a repeat
// answers 404), so only failures the server guarantees preceded any
// application — 429 load shed, 503 degraded — are retried.
func (c *Client) Remove(ctx context.Context, id string) (*api.RemoveResponse, error) {
	var out api.RemoveResponse
	if _, err := c.do(ctx, idemNone, http.MethodDelete, "/v1/records/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SaveSnapshot runs a checkpoint on the server: everything acknowledged
// so far is flushed to its data directory and the write-ahead log is
// truncated.
func (c *Client) SaveSnapshot(ctx context.Context) (*api.SnapshotResponse, error) {
	var out api.SnapshotResponse
	if _, err := c.do(ctx, idemSafe, http.MethodPost, "/v1/snapshot/save", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health checks /healthz. A degraded or unhealthy server answers 503
// with the same JSON body — that is a successful health check here (the
// response reports Status "degraded"/"unhealthy"), not an error, so
// callers can read why the node is down.
func (c *Client) Health(ctx context.Context) (*api.HealthResponse, error) {
	var out api.HealthResponse
	_, err := c.do(ctx, idemSafe, http.MethodGet, "/healthz", nil, &out,
		http.StatusOK, http.StatusServiceUnavailable)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the raw Prometheus exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	var text string
	_, err := c.retry(ctx, idemSafe, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
		if err != nil {
			return fmt.Errorf("client: %w", err)
		}
		res, err := c.http.Do(req)
		if err != nil {
			return fmt.Errorf("client: %w", err)
		}
		defer res.Body.Close()
		blob, err := io.ReadAll(res.Body)
		if err != nil {
			return fmt.Errorf("client: %w", err)
		}
		if res.StatusCode != http.StatusOK {
			return &APIError{StatusCode: res.StatusCode, Message: strings.TrimSpace(string(blob))}
		}
		text = string(blob)
		return nil
	})
	return text, err
}
