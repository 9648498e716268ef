package serclient

import (
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// TestDecodeRequest: one JSON value with known fields decodes; an
// unknown field, a second value or trailing garbage is refused, worded
// as json.Unmarshal words it; trailing whitespace is allowed; reader
// errors come back unwrapped.
func TestDecodeRequest(t *testing.T) {
	var req AnalyzeRequest
	if err := DecodeRequest(strings.NewReader(" {\"circuit\":\"c17\",\"vectors\":64} \r\n\t"), &req); err != nil {
		t.Fatalf("well-formed body: %v", err)
	}
	if req.Circuit != "c17" || req.Vectors != 64 {
		t.Fatalf("decoded %+v", req)
	}
	if err := DecodeRequest(strings.NewReader(`{"circuit":"c17","vectorz":5}`), &req); err == nil || err.Error() != `json: unknown field "vectorz"` {
		t.Errorf("unknown field: got %v", err)
	}
	for _, trail := range []string{`{"circuit":"c432"}`, `x`, `'`, `"`, `\`, "\x01", "\xff", `]`, `0`} {
		body := `{"circuit":"c17"}` + "\n" + trail
		err := DecodeRequest(strings.NewReader(body), &req)
		want := json.Unmarshal([]byte(body), new(AnalyzeRequest))
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("trailing %q: got %v, json.Unmarshal says %v", trail, err, want)
		}
	}
	if err := DecodeRequest(strings.NewReader(`{"circuit":"c17"`), &req); err == nil {
		t.Error("truncated body decoded")
	}
	boom := errors.New("boom")
	r := io.MultiReader(strings.NewReader(`{"circuit":"c17"}`), iotest.ErrReader(boom))
	if err := DecodeRequest(r, &req); err != boom {
		t.Errorf("reader error after the value: got %v, want it unwrapped", err)
	}
}
