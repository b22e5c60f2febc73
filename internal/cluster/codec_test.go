package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"pincer/internal/itemset"
)

// plainCountRequest is CountRequest with the types encoding/json decodes
// by reflection: the reference FuzzWireCodec compares the codec with.
type plainCountRequest struct {
	JobID      string            `json:"job_id"`
	Pass       int               `json:"pass"`
	Kind       string            `json:"kind"`
	ShardID    string            `json:"shard_id"`
	NumItems   int               `json:"num_items"`
	Live       itemset.Itemset   `json:"live,omitempty"`
	Engine     string            `json:"engine,omitempty"`
	Candidates []itemset.Itemset `json:"candidates,omitempty"`
	Elems      []itemset.Itemset `json:"elems,omitempty"`
}

// plainCountResponse is CountResponse with reflection-decoded types.
type plainCountResponse struct {
	WorkerID     string  `json:"worker_id"`
	ShardID      string  `json:"shard_id"`
	Pass         int     `json:"pass"`
	Transactions int     `json:"transactions"`
	Memoized     bool    `json:"memoized,omitempty"`
	ItemCounts   []int64 `json:"item_counts,omitempty"`
	PairCounts   []int64 `json:"pair_counts,omitempty"`
	CandCounts   []int64 `json:"cand_counts,omitempty"`
	ElemCounts   []int64 `json:"elem_counts,omitempty"`
}

// FuzzWireCodec is the differential test of the wire codec against
// encoding/json, on three inputs decoded in turn into one value — so that
// decoding into a value an earlier input filled, as a repeated JSON key
// does, is compared too:
//   - wireSets and wireCounts accept exactly the inputs json.Unmarshal
//     accepts into a []itemset.Itemset and a []int64, and hold equal
//     values after each, nil and empty slices told apart;
//   - their encoders write json.Marshal's bytes for every value decoded;
//   - CountRequest and CountResponse, decoded from the first input as a
//     whole message (strictly, as DecodeCount does), accept what the same
//     structs with reflection-decoded lists accept, hold equal values, and
//     marshal to the same bytes.
func FuzzWireCodec(f *testing.F) {
	for _, seed := range [][3]string{
		{`[[1,2],[3]]`, `[[4]]`, `[[5,6],[7],[8]]`},
		{`null`, `[]`, `[null,[]]`},
		{`[[1,2,3],[4,5]]`, `[[null,9],[null]]`, `[[],null,[null]]`},
		{`[[1],[2],[3],[4],[5]]`, `[[6]]`, `[[null],[null],[7]]`},
		{` [ [ 2147483647 , -2147483648 ] , [ -0 ] ] `, `[[2147483648]]`, `[[-2147483649]]`},
		{`[9223372036854775807,-9223372036854775808]`, `[9223372036854775808]`, `[-9223372036854775809]`},
		{`[[1.5]]`, `[[1e2]]`, `[[1E+2]]`},
		{`[1.0]`, `[-]`, `[01]`},
		{`[["a"]]`, `[[true]]`, `[[{}]]`},
		{`[[[1]]]`, `[{}]`, `{}`},
		{`[1]`, `"x"`, `true`},
		{`[[1]]x`, `[[1,]]`, `[,]`},
		{`[[1] [2]]`, `[[1]`, `[nul]`},
		{`[null1]`, `[1null]`, ``},
		{`{"job_id":"j","pass":3,"kind":"candidates","shard_id":"s","num_items":8,"candidates":[[1,2],[3]],"elems":[[1],null]}`, `[]`, `null`},
		{`{"job_id":"j","kind":"sets","elems":[[1]],"Elems":[[2,3]],"elems":[[null]]}`, `[[1]]`, `[[2]]`},
		{`{"worker_id":"w","shard_id":"s","pass":1,"transactions":9,"item_counts":[1,2],"elem_counts":[3,null]}`, `[1,2]`, `[3]`},
		{`{"elems":"x"}`, `{"elems":[["x"]],"pass":"y"}`, `{"bogus":1,"elems":[[1]]}`},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]), []byte(seed[2]))
	}
	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		inputs := [][]byte{a, b, c}
		var sets wireSets
		var wantSets []itemset.Itemset
		compareLists(t, inputs, &sets, &wantSets)
		var counts wireCounts
		var wantCounts []int64
		compareLists(t, inputs, &counts, &wantCounts)

		var req CountRequest
		var wantReq plainCountRequest
		if compareDecode(t, "CountRequest", a, &req, &wantReq) {
			got := plainCountRequest{req.JobID, req.Pass, req.Kind, req.ShardID, req.NumItems, req.Live, req.Engine, req.Candidates, req.Elems}
			compareValues(t, "CountRequest", got, wantReq, req, wantReq)
		}
		var resp CountResponse
		var wantResp plainCountResponse
		if compareDecode(t, "CountResponse", a, &resp, &wantResp) {
			got := plainCountResponse{resp.WorkerID, resp.ShardID, resp.Pass, resp.Transactions, resp.Memoized, resp.ItemCounts, resp.PairCounts, resp.CandCounts, resp.ElemCounts}
			compareValues(t, "CountResponse", got, wantResp, resp, wantResp)
		}
	})
}

// compareLists decodes the inputs in turn into got with the codec and into
// want with encoding/json, stopping at the first input either rejects: both
// must reject it, or both accept it with equal values, which the codec
// encodes to json.Marshal's bytes.
func compareLists(t *testing.T, inputs [][]byte, got interface {
	json.Marshaler
	json.Unmarshaler
}, want any) {
	t.Helper()
	for i, in := range inputs {
		gerr := got.UnmarshalJSON(in)
		werr := json.Unmarshal(in, want)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%T input %d %q: codec error %v, encoding/json error %v", got, i, in, gerr, werr)
		}
		if gerr != nil {
			return
		}
		gv := reflect.ValueOf(got).Elem().Convert(reflect.TypeOf(want).Elem()).Interface()
		wv := reflect.ValueOf(want).Elem().Interface()
		if !reflect.DeepEqual(gv, wv) {
			t.Fatalf("%T input %d %q: codec decoded %#v, encoding/json %#v", got, i, in, gv, wv)
		}
		gb, gerr := got.MarshalJSON()
		wb, werr := json.Marshal(want)
		if gerr != nil || werr != nil || !bytes.Equal(gb, wb) {
			t.Fatalf("%T input %d %q: codec wrote %s (%v), encoding/json %s (%v)", got, i, in, gb, gerr, wb, werr)
		}
	}
}

// compareDecode decodes body strictly into got and want and reports
// whether both accepted it; it fails the test when only one did.
func compareDecode(t *testing.T, what string, body []byte, got, want any) bool {
	t.Helper()
	gerr := decodeStrict(bytes.NewReader(body), 1<<20, got)
	werr := decodeStrict(bytes.NewReader(body), 1<<20, want)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s %q: codec error %v, encoding/json error %v", what, body, gerr, werr)
	}
	return gerr == nil
}

// compareValues fails the test unless got and want are deeply equal and
// gotMsg and wantMsg marshal to the same bytes.
func compareValues(t *testing.T, what string, got, want, gotMsg, wantMsg any) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: codec decoded %#v, encoding/json %#v", what, got, want)
	}
	gb, gerr := json.Marshal(gotMsg)
	wb, werr := json.Marshal(wantMsg)
	if gerr != nil || werr != nil || !bytes.Equal(gb, wb) {
		t.Fatalf("%s: codec wrote %s (%v), encoding/json %s (%v)", what, gb, gerr, wb, werr)
	}
}

// TestMemoKeyOfCoordinatorBody pins the worker's memo key across the
// codec: for a body a coordinator marshals, hashing the body as read gives
// the key that marshalling the decoded request again gives, so a memo
// keyed either way answers the same duplicates.
func TestMemoKeyOfCoordinatorBody(t *testing.T) {
	req := &CountRequest{
		JobID: "s.b7.append", Pass: 7, Kind: KindSets, ShardID: ShardID(8, []byte("1 2\n")), NumItems: 8,
		Elems: []itemset.Itemset{{1}, {1, 2}, {1, 2}, {0, 3, 7}},
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeCount(bytes.NewReader(body), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := memoKey(decoded, body), memoKey(decoded, again); got != want {
		t.Fatalf("memo key of the body %s, of the re-marshalled request %s", got, want)
	}
}
