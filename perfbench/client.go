package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"semdisco"
	"semdisco/internal/httpapi"
)

// k is the result size every query asks for.
const k = 10

// client speaks the public JSON API to one server over at most nconns
// connections, recording a span around every call when traced.
type client struct {
	base string
	hc   *http.Client
	rec  *recorder
}

func newClient(base string, conns int, rec *recorder) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, rec: rec}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request and decodes a JSON answer into out, returning the
// response body's size. Any status but want is an error.
func (c *client) call(ctx context.Context, span, method, path string, in, out interface{}, want int) (int, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(b)
	}
	ctx, end := c.rec.openCtx(ctx, span)
	defer end()
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return 0, err
	}
	if ref, ok := ctx.Value(spanKey{}).(spanRef); ok {
		req.Header.Set(traceHeader, ref.header())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return len(raw), err
	}
	if resp.StatusCode != want {
		return len(raw), fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return len(raw), fmt.Errorf("%s %s: malformed body: %v", method, path, err)
	}
	return len(raw), nil
}

func (c *client) search(ctx context.Context, q string) ([]semdisco.Match, int, error) {
	var resp httpapi.SearchResponse
	n, err := c.call(ctx, "client.search", http.MethodPost, "/v1/search",
		httpapi.SearchRequest{Query: q, K: k}, &resp, http.StatusOK)
	if err != nil {
		return nil, n, err
	}
	if resp.Degraded {
		return nil, n, fmt.Errorf("search %q: degraded answer: %v", q, resp.ShardErrors)
	}
	ms, err := fromJSON(resp.Matches)
	return ms, n, err
}

func (c *client) batch(ctx context.Context, qs []string) ([][]semdisco.Match, int, error) {
	req := httpapi.BatchSearchRequest{Queries: make([]httpapi.BatchQueryJSON, len(qs))}
	for i, q := range qs {
		req.Queries[i] = httpapi.BatchQueryJSON{Query: q, K: k}
	}
	var resp httpapi.BatchSearchResponse
	n, err := c.call(ctx, "client.batch", http.MethodPost, "/v1/search/batch", req, &resp, http.StatusOK)
	if err != nil {
		return nil, n, err
	}
	if len(resp.Results) != len(qs) {
		return nil, n, fmt.Errorf("batch: %d results for %d queries", len(resp.Results), len(qs))
	}
	out := make([][]semdisco.Match, len(qs))
	for i, r := range resp.Results {
		if r.Degraded {
			return nil, n, fmt.Errorf("batch item %d: degraded answer: %v", i, r.ShardErrors)
		}
		if out[i], err = fromJSON(r.Matches); err != nil {
			return nil, n, err
		}
	}
	return out, n, nil
}

// write sends one add, update or delete.
func (c *client) write(ctx context.Context, o op) (int, error) {
	var ack map[string]string
	var (
		n   int
		err error
	)
	switch o.kind {
	case opAdd:
		n, err = c.call(ctx, "client.write", http.MethodPost, "/v1/relations", relationJSON(o.rel), &ack, http.StatusCreated)
	case opUpdate:
		n, err = c.call(ctx, "client.write", http.MethodPut, "/v1/relations/"+o.id, relationJSON(o.rel), &ack, http.StatusOK)
	case opDelete:
		n, err = c.call(ctx, "client.write", http.MethodDelete, "/v1/relations/"+o.id, nil, &ack, http.StatusOK)
	default:
		return 0, fmt.Errorf("write: op kind %v", o.kind)
	}
	if err == nil && ack["id"] != o.id {
		err = fmt.Errorf("%v %s: acknowledged id %q", o.kind, o.id, ack["id"])
	}
	return n, err
}

// do sends any op of a stream.
func (c *client) do(ctx context.Context, o op) (int, error) {
	if o.kind == opSearch {
		_, n, err := c.search(ctx, o.query)
		return n, err
	}
	return c.write(ctx, o)
}

func relationJSON(r *semdisco.Relation) httpapi.RelationJSON {
	return httpapi.RelationJSON{ID: r.ID, Source: r.Source, PageTitle: r.PageTitle,
		SectionTitle: r.SectionTitle, Caption: r.Caption, Columns: r.Columns, Rows: r.Rows}
}

// fromJSON converts and validates an answer: at most k matches, named,
// finite scores in non-increasing order.
func fromJSON(js []httpapi.MatchJSON) ([]semdisco.Match, error) {
	if len(js) > k {
		return nil, fmt.Errorf("malformed answer: %d matches for k=%d", len(js), k)
	}
	out := make([]semdisco.Match, len(js))
	for i, m := range js {
		s := float64(m.Score)
		if m.RelationID == "" || math.IsNaN(s) || math.IsInf(s, 0) || (i > 0 && m.Score > js[i-1].Score) {
			return nil, fmt.Errorf("malformed answer at rank %d: %+v", i, m)
		}
		out[i] = semdisco.Match{RelationID: m.RelationID, Score: m.Score}
	}
	return out, nil
}
