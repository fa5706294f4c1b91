package httpapi

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// strictUnmarshal is DecodeStrict's contract written with encoding/json
// alone: the input must be one valid JSON value (json.Unmarshal's syntax
// check, trailing bytes included), decoded with unknown fields disallowed.
func strictUnmarshal(data []byte, v any) error {
	var any any
	if err := json.Unmarshal(data, &any); err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// checkEncoders compares every encoder's bytes with json.Marshal's over
// values built from the five strings, and runs the decoders over what they
// wrote.
func checkEncoders(t *testing.T, a, b, c, d, e string) {
	t.Helper()
	dec := Decision{Resource: a, Requester: b, Effect: c, Rule: d, Reason: e}
	decisions := []Decision{dec, {Resource: e, Requester: d, Effect: b}, {}}
	requesters := []string{a, b, c, d, e, ""}
	cases := []struct {
		v      any
		append func([]byte) []byte
	}{
		{dec, func(dst []byte) []byte { return AppendDecision(dst, dec) }},
		{Decision{}, func(dst []byte) []byte { return AppendDecision(dst, Decision{}) }},
		{CheckBatchRequest{Resource: a, Requesters: requesters}, func(dst []byte) []byte {
			return AppendCheckBatchRequest(dst, CheckBatchRequest{Resource: a, Requesters: requesters})
		}},
		{CheckBatchRequest{Resource: b, Requesters: []string{}}, func(dst []byte) []byte {
			return AppendCheckBatchRequest(dst, CheckBatchRequest{Resource: b, Requesters: []string{}})
		}},
		{CheckBatchRequest{Resource: c}, func(dst []byte) []byte {
			return AppendCheckBatchRequest(dst, CheckBatchRequest{Resource: c})
		}},
		{CheckBatchResponse{Decisions: decisions}, func(dst []byte) []byte {
			return AppendCheckBatchResponse(dst, CheckBatchResponse{Decisions: decisions})
		}},
		{CheckBatchResponse{Decisions: []Decision{}}, func(dst []byte) []byte {
			return AppendCheckBatchResponse(dst, CheckBatchResponse{Decisions: []Decision{}})
		}},
		{CheckBatchResponse{}, func(dst []byte) []byte { return AppendCheckBatchResponse(dst, CheckBatchResponse{}) }},
	}
	for _, tc := range cases {
		want, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("prefix")
		if got := tc.append(prefix); !bytes.Equal(got[len(prefix):], want) || !bytes.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("%#v encodes as\n%q, json.Marshal writes\n%q", tc.v, got[len(prefix):], want)
		}
		checkDecoders(t, want)
	}
}

// checkDecoders compares every decoder's value and error-or-not on data
// with encoding/json's.
func checkDecoders(t *testing.T, data []byte) {
	t.Helper()
	var wantD Decision
	wantErr := json.Unmarshal(data, &wantD)
	gotD, err := DecodeDecision(data)
	if (err != nil) != (wantErr != nil) || !reflect.DeepEqual(gotD, wantD) {
		t.Fatalf("DecodeDecision(%q) = %#v, %v; json.Unmarshal gives %#v, %v", data, gotD, err, wantD, wantErr)
	}

	var wantResp CheckBatchResponse
	wantErr = json.Unmarshal(data, &wantResp)
	gotResp, err := DecodeCheckBatchResponse(data)
	if (err != nil) != (wantErr != nil) || !reflect.DeepEqual(gotResp, wantResp) {
		t.Fatalf("DecodeCheckBatchResponse(%q) = %#v, %v; json.Unmarshal gives %#v, %v", data, gotResp, err, wantResp, wantErr)
	}

	var wantReq CheckBatchRequest
	wantErr = strictUnmarshal(data, &wantReq)
	gotReq, err := DecodeCheckBatchRequest(data)
	if (err != nil) != (wantErr != nil) || err == nil && !reflect.DeepEqual(gotReq, wantReq) {
		t.Fatalf("DecodeCheckBatchRequest(%q) = %#v, %v; strict json.Unmarshal gives %#v, %v", data, gotReq, err, wantReq, wantErr)
	}
	var strictReq CheckBatchRequest
	if err := DecodeStrict(data, &strictReq); (err != nil) != (wantErr != nil) || err == nil && !reflect.DeepEqual(strictReq, wantReq) {
		t.Fatalf("DecodeStrict(%q) = %#v, %v; strict json.Unmarshal gives %#v, %v", data, strictReq, err, wantReq, wantErr)
	}
}

// FuzzWireCodec pins the read-path codec to encoding/json: on arbitrary
// field strings every encoder writes json.Marshal's bytes (and the decoders
// read them back as json.Unmarshal does), and on arbitrary bytes every
// decoder returns json.Unmarshal's value and fails exactly when it does.
func FuzzWireCodec(f *testing.F) {
	f.Add("photo", "bob", "allow", "rule-1", `all conditions of rule "rule-1" satisfied`, []byte(`{"resource":"photo","requesters":["bob","dave"]}`))
	f.Add("<a&b>", "  ", "\x00\x1f\x7f", "\xff\xfe", `\"/\\`, []byte(`{"decisions":[{"resource":"photo","requester":"bob","effect":"allow","rule":"rule-1","reason":"all conditions of rule \"rule-1\" satisfied"}]}`))
	f.Add("é", "\U0001F600", "\xed\xa0\x80", "", "\t\n", []byte(`{"resource":"photo","requesters":["bob"]} trailing junk`))
	f.Add("<", ">", "&", "\u2028", "\x7f", []byte("{\"resource\":\"\xff\",\"requesters\":[\"\xed\xa0\x80\"]}"))
	for _, body := range []string{
		` { "effect" : "deny" , "resource":"ré\n\/x" } `,
		`{"resource":"a","resource":"b"}`,
		`{"Resource":"a","EFFECT":"allow"}`,
		`{"resource":"a"}`,
		`{"resource":null,"requesters":null}`,
		`{"requesters":["a",null,"😀","\udc00"]}`,
		`{"resource":"\ud800","requesters":["\ud83d\ude00","\udc00x"]}`,
		`{"decisions":[{"rule":"x"}],"decisions":[{"effect":"deny"}]}`,
		`{"requesters":["a","b"],"requesters":["c"]}`,
		`{"decisions":[{"unknown":1},{}]}`,
		`{"decisions":null}`,
		`{"decisions":[]}{}`,
		`{"resource":"x","requesters":[],"extra":true}`,
		`{"resource":"\xff"}`,
		`{"resource":"a",}`,
		`{"resource":"a\u00"}`,
		`["resource"]`,
		`null`,
		`{}`,
		"",
	} {
		f.Add("", "", "", "", "", []byte(body))
	}
	f.Fuzz(func(t *testing.T, a, b, c, d, e string, data []byte) {
		checkEncoders(t, a, b, c, d, e)
		checkDecoders(t, data)
	})
}

// TestDecodeFastPathAllocs pins that the wire shapes a server writes are
// read without falling back to encoding/json: the only allocations are the
// decoded strings and slices (the effect's is shared).
func TestDecodeFastPathAllocs(t *testing.T) {
	allow := Decision{Resource: "photo", Requester: "dave", Effect: "allow", Rule: "rule-1",
		Reason: `all conditions of rule "rule-1" satisfied`}
	deny := Decision{Resource: "photo", Requester: "erin", Effect: "deny", Reason: "no access rule satisfied"}
	batch := CheckBatchResponse{Decisions: []Decision{allow, deny, allow, deny}}
	req := CheckBatchRequest{Resource: "photo", Requesters: []string{"bob", "dave", "erin", "fay"}}
	for _, tc := range []struct {
		name   string
		data   []byte
		decode func([]byte) error
		allocs float64
	}{
		{"allow", AppendDecision(nil, allow), func(b []byte) error { _, err := DecodeDecision(b); return err }, 4},
		{"deny", AppendDecision(nil, deny), func(b []byte) error { _, err := DecodeDecision(b); return err }, 3},
		{"batch4", AppendCheckBatchResponse(nil, batch), func(b []byte) error { _, err := DecodeCheckBatchResponse(b); return err }, 15},
		{"request4", AppendCheckBatchRequest(nil, req), func(b []byte) error { _, err := DecodeCheckBatchRequest(b); return err }, 6},
	} {
		data := append(tc.data, '\n')
		if err := tc.decode(data); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := testing.AllocsPerRun(100, func() { _ = tc.decode(data) }); got > tc.allocs {
			t.Errorf("%s: %v allocs per decode, want at most %v", tc.name, got, tc.allocs)
		}
	}
}
