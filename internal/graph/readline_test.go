package graph

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzReadLine: for any line, Read's fast path either declines it or
// reads exactly the record json.Unmarshal reads. The parser is reused
// across lines, as Read reuses it, so a line must not inherit a field
// of the one before.
func FuzzReadLine(f *testing.F) {
	for _, line := range []string{
		`{"node":{"id":0,"name":"author12","type":"author"}}`,
		`{"node":{"id":7}}`,
		`{"node":{"id":7,"type":"t"}}`,
		`{"node":{"id":7,"name":""}}`,
		`{"node":{"id":2147483647,"name":"a b"}}`,
		`{"node":{"id":2147483648}}`,
		`{"node":{"id":07}}`,
		`{"node":{"id":-1}}`,
		`{"node":{"id":1,"type":"t","name":"n"}}`,
		`{"node":{"id":1,"name":"<tag>"}}`,
		`{"node":{"id":1,"name":"quo\"te"}}`,
		`{"edge":{"from":3,"label":"a\u003cb","to":4}}`,
		"{\"node\":{\"id\":1,\"name\":\"h\xc3\xa9\xff\"}}",
		`{"edge":{"from":3,"label":"p-in","to":60}}`,
		`{"edge":{"from":3,"label":"","to":0}}`,
		`{"edge":{"from":3,"to":60,"label":"w"}}`,
		`{"edge":{"from":3,"label":"w","to":60}} `,
		`{"edge":{"from":3,"label":"w","to":60}}}`,
		`{"node":{"id":1},"edge":{"from":0,"label":"w","to":0}}`,
		`{"NODE":{"ID":1}}`,
	} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var p lineParser
		if !p.parse([]byte(`{"edge":{"from":1,"label":"x","to":2}}`)) || !p.parse([]byte(`{"node":{"id":9,"name":"m","type":"u"}}`)) {
			t.Fatal("the fast path declines a line WriteView writes")
		}
		if !p.parse(line) {
			return
		}
		var want record
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("fast path read %q, which json rejects: %v", line, err)
		}
		if !reflect.DeepEqual(p.rec, want) {
			t.Fatalf("%q: fast path read %+v / %+v, json %+v / %+v", line, p.rec.Node, p.rec.Edge, want.Node, want.Edge)
		}
	})
}
