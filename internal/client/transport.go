package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"zerberr/internal/crypt"
	"zerberr/internal/server"
)

// Transport abstracts how the client reaches the index server: in
// process (experiments, tests) or over HTTP (outsourced deployment).
//
// Every method takes a context as its first argument (API v3). The
// context bounds the whole exchange: transports that perform I/O must
// abandon the operation when the context is canceled or its deadline
// passes, returning the context's error (possibly wrapped — callers
// match with errors.Is).
//
// Each operation has one request shape, a batch: one exchange covers
// many lists or many elements, which is what makes multi-term search
// O(rounds) instead of O(requests) over the network.
//
// Query responses carry the list's mutation version, and QueryBatch
// sub-queries may be conditional (server.ListQuery.IfVersion): a
// transport must pass both through unmodified — except the cluster
// Router, which may set IfVersion itself on sub-queries the caller
// left unconditional and must then resolve Unchanged answers back
// into full windows before returning them. Callers that set IfVersion
// explicitly always receive the raw Unchanged marker and own the
// retained window themselves. The client's progressive search never
// sets it: its repeated doubling windows are instead served from the
// server-side result cache, which keys on the same versions.
type Transport interface {
	Login(ctx context.Context, user string) ([]crypt.Token, error)
	QueryBatch(ctx context.Context, toks []crypt.Token, queries []server.ListQuery) (BatchQueryResult, error)
	InsertBatch(ctx context.Context, tok crypt.Token, ops []server.InsertOp) error
	RemoveBatch(ctx context.Context, tok crypt.Token, ops []server.RemoveOp) error
}

// BatchQueryResult is one batched round-trip's worth of responses,
// ordered like the sub-queries that produced them.
type BatchQueryResult struct {
	Responses []server.QueryResponse
	// WireBytes is the measured size of the encoded response body on
	// transports that serialize (HTTP measures the response frame's
	// bytes); 0 in process, where nothing crosses a wire and callers
	// fall back to the codec's per-element estimate.
	WireBytes int
}

// Local is the in-process transport.
type Local struct {
	S *server.Server
}

// Login implements Transport.
func (l Local) Login(ctx context.Context, user string) ([]crypt.Token, error) {
	return l.S.Login(ctx, user)
}

// QueryBatch implements Transport.
func (l Local) QueryBatch(ctx context.Context, toks []crypt.Token, queries []server.ListQuery) (BatchQueryResult, error) {
	resps, err := l.S.QueryBatch(ctx, toks, queries)
	return BatchQueryResult{Responses: resps}, err
}

// InsertBatch implements Transport.
func (l Local) InsertBatch(ctx context.Context, tok crypt.Token, ops []server.InsertOp) error {
	return l.S.InsertBatch(ctx, tok, ops)
}

// RemoveBatch implements Transport.
func (l Local) RemoveBatch(ctx context.Context, tok crypt.Token, ops []server.RemoveOp) error {
	return l.S.RemoveBatch(ctx, tok, ops)
}

// DefaultHTTPTimeout caps one HTTP exchange when no custom client and
// no tighter context deadline is set: a hung or unreachable server
// fails the request instead of wedging the caller forever.
const DefaultHTTPTimeout = 30 * time.Second

// defaultHTTPClient backs HTTP transports whose Client field is nil.
// Unlike http.DefaultClient it carries a timeout, so the zero-config
// transport can never block indefinitely on a dead peer.
var defaultHTTPClient = &http.Client{Timeout: DefaultHTTPTimeout}

// HTTP talks to a zerberd index server. The three batch operations
// (QueryBatch, InsertBatch, RemoveBatch) always travel as binary frames
// (server.FrameContentType, internal/server/frame.go); everything else
// — Login, Stats, the admin plane and every error envelope — is JSON. A query response body is read into one buffer
// and decoded from it; each sub-response's payloads then get one
// buffer of their own, so a window the router cache keeps does not
// pin the rest of the body.
type HTTP struct {
	// BaseURL is the server root, e.g. "http://host:8021".
	BaseURL string
	// Client is the HTTP client; nil means a shared default with
	// DefaultHTTPTimeout. Inject one to tune pooling, TLS or the
	// overall per-exchange timeout. Per-request context deadlines are
	// honored either way and may fire earlier than the client timeout.
	Client *http.Client
	// Retry, when non-nil, makes the transport self-healing: transient
	// failures — 429/503 admission rejections on every operation, and
	// other 5xx or transport errors on idempotent ones — are re-sent
	// with capped exponential backoff and jitter, honoring server
	// Retry-After hints (see retry.go). Nil disables retrying.
	Retry *RetryPolicy
	// AdminMAC authorizes the /v3/admin snapshot-transfer calls
	// (ShardAdmin); derive it with server.AdminMAC(secret). Empty means
	// admin calls fail with an authentication error — protocol
	// operations never need it.
	AdminMAC string
}

func (h HTTP) httpClient() *http.Client {
	if h.Client != nil {
		return h.Client
	}
	return defaultHTTPClient
}

// postJSON posts a JSON request body and decodes the JSON answer into
// out, translating error envelopes into errors. idempotent widens the
// retry classification (see retry.go); only operations that are safe
// to re-send after an ambiguous failure may pass true.
func (h HTTP) postJSON(ctx context.Context, path string, in, out interface{}, idempotent bool) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("client: encoding request: %w", err)
	}
	return h.exchangeJSON(ctx, http.MethodPost, path, body, out, idempotent)
}

// exchangeJSON runs exchange with a JSON body (or none) and decodes a
// JSON answer into out.
func (h HTTP) exchangeJSON(ctx context.Context, method, path string, body []byte, out interface{}, idempotent bool) error {
	raw, err := h.exchange(ctx, method, path, body, "application/json", idempotent)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("client: %s: decoding response: %w", path, err)
	}
	return nil
}

// exchange runs one logical request through the retry loop and returns
// the body of the 200 answer. The request is bound to ctx
// (http.NewRequestWithContext), so cancellation aborts it even
// mid-flight or mid-backoff. With no policy installed it is exactly
// one attempt. A context canceled mid-backoff surfaces as the
// context's error.
func (h HTTP) exchange(ctx context.Context, method, path string, body []byte, contentType string, idempotent bool) ([]byte, error) {
	for retry := 0; ; retry++ {
		raw, status, hint, err := h.doOnce(ctx, method, path, body, contentType)
		if err == nil {
			return raw, nil
		}
		if ctx.Err() != nil || retry >= h.Retry.maxRetries() || !retryable(status, idempotent) {
			return nil, err
		}
		if serr := sleepCtx(ctx, h.Retry.delay(retry, hint)); serr != nil {
			return nil, fmt.Errorf("client: %s: canceled while backing off: %w", path, serr)
		}
	}
}

// doOnce is one attempt of exchange. status is the HTTP status of the
// answer, or 0 when the exchange failed below HTTP (transport error);
// hint is the server's Retry-After, when one came back.
func (h HTTP) doOnce(ctx context.Context, method, path string, body []byte, contentType string) (raw []byte, status int, hint time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, h.BaseURL+path, rd)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("client: %s: %w", path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := h.httpClient().Do(req)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("client: %s: %w", path, err)
	}
	defer resp.Body.Close()
	raw, err = readResponse(resp)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("client: %s: reading response: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, retryAfter(resp.Header), h.decodeError(path, resp.StatusCode, raw)
	}
	return raw, http.StatusOK, 0, nil
}

// maxPreallocResponse bounds the buffer a declared Content-Length may
// allocate before any of the body has arrived; a longer body is read
// incrementally instead.
const maxPreallocResponse = 16 << 20

// readResponse reads a response body, in one allocation when the
// server declared its length.
func readResponse(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxPreallocResponse {
		return io.ReadAll(resp.Body)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// decodeError turns a non-200 response into an error. Every endpoint
// answers with a structured {code, error, index} envelope whose code
// is mapped back onto the server sentinel errors, so errors.Is behaves
// identically over HTTP and in process.
func (h HTTP) decodeError(path string, status int, raw []byte) error {
	var env server.ErrorV2
	if err := json.Unmarshal(raw, &env); err != nil || env.Error == "" {
		return fmt.Errorf("client: %s: server status %d: %s", path, status, raw)
	}
	if sentinel := server.SentinelForCode(env.Code); sentinel != nil {
		err := fmt.Errorf("%w (remote: %s)", sentinel, env.Error)
		if env.Index != nil {
			return &server.BatchError{Index: *env.Index, Err: err}
		}
		return err
	}
	return fmt.Errorf("client: %s: server status %d: %s", path, status, env.Error)
}

// Login implements Transport.
func (h HTTP) Login(ctx context.Context, user string) ([]crypt.Token, error) {
	var out server.LoginResponse
	if err := h.postJSON(ctx, "/v1/login", server.LoginRequest{User: user}, &out, true); err != nil {
		return nil, err
	}
	return out.Tokens, nil
}

// QueryBatch implements Transport over POST /v2/query. WireBytes is
// the measured response body size.
func (h HTTP) QueryBatch(ctx context.Context, toks []crypt.Token, queries []server.ListQuery) (BatchQueryResult, error) {
	req := server.QueryBatchRequest{Tokens: toks, Queries: queries}
	raw, err := h.exchange(ctx, http.MethodPost, "/v2/query", req.AppendFrame(nil), server.FrameContentType, true)
	if err != nil {
		return BatchQueryResult{}, err
	}
	resps, err := decodeQueryFrame(raw)
	if err != nil {
		return BatchQueryResult{}, err
	}
	if len(resps) != len(queries) {
		return BatchQueryResult{}, fmt.Errorf("client: /v2/query: %d responses for %d queries", len(resps), len(queries))
	}
	return BatchQueryResult{Responses: resps, WireBytes: len(raw)}, nil
}

// decodeQueryFrame decodes a /v2/query response frame from an
// untrusted server.
func decodeQueryFrame(raw []byte) ([]server.QueryResponse, error) {
	var out server.QueryBatchResponse
	if err := out.UnmarshalFrame(raw); err != nil {
		return nil, fmt.Errorf("client: /v2/query: decoding response: %w", err)
	}
	return out.Responses, nil
}

// InsertBatch implements Transport over POST /v2/insert.
func (h HTTP) InsertBatch(ctx context.Context, tok crypt.Token, ops []server.InsertOp) error {
	req := server.InsertBatchRequest{Token: tok, Ops: ops}
	_, err := h.exchange(ctx, http.MethodPost, "/v2/insert", req.AppendFrame(nil), server.FrameContentType, false)
	return err
}

// RemoveBatch implements Transport over POST /v2/remove.
func (h HTTP) RemoveBatch(ctx context.Context, tok crypt.Token, ops []server.RemoveOp) error {
	req := server.RemoveBatchRequest{Token: tok, Ops: ops}
	_, err := h.exchange(ctx, http.MethodPost, "/v2/remove", req.AppendFrame(nil), server.FrameContentType, false)
	return err
}

// Stats fetches GET /v2/stats: totals, per-list element counts, the
// storage backend name, and — on an instrumented server — the ops
// section. It is not part of Transport — it is an administrative call,
// not a protocol operation. It rides the same retry loop as the
// protocol operations (a GET is idempotent).
func (h HTTP) Stats(ctx context.Context) (server.StatsV2Response, error) {
	var out server.StatsV2Response
	if err := h.exchangeJSON(ctx, http.MethodGet, "/v2/stats", nil, &out, true); err != nil {
		return server.StatsV2Response{}, err
	}
	return out, nil
}

// StatsRoots is Stats plus each list's Merkle commitment (GET
// /v2/stats?roots=1): ListStat.Version and the truncated Root digest.
// An audit call — the server materializes every list's commitment to
// answer it.
func (h HTTP) StatsRoots(ctx context.Context) (server.StatsV2Response, error) {
	var out server.StatsV2Response
	if err := h.exchangeJSON(ctx, http.MethodGet, "/v2/stats?roots=1", nil, &out, true); err != nil {
		return server.StatsV2Response{}, err
	}
	return out, nil
}

var _ Transport = Local{}
var _ Transport = HTTP{}
