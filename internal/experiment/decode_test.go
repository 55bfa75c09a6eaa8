package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/topology"
	"bgploop/internal/trace"
)

// checkDecodeMatchesOracle decodes an EncodeResult output with DecodeResult
// and with json.Unmarshal: the two values must be equal, and the decoded
// one must re-encode byte for byte.
func checkDecodeMatchesOracle(t *testing.T, name string, enc []byte) {
	t.Helper()
	got, err := DecodeResult(enc)
	if err != nil {
		t.Fatalf("%s: DecodeResult refuses EncodeResult's output: %v", name, err)
	}
	want := &Result{}
	if err := json.Unmarshal(enc, want); err != nil {
		t.Fatalf("%s: encoding/json: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: DecodeResult and json.Unmarshal disagree:\n got %+v\nwant %+v", name, got, want)
	}
	again, err := EncodeResult(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, enc) {
		t.Fatalf("%s: decoded result re-encodes differently:\n got %s\nwant %s", name, again, enc)
	}
}

var traceType = reflect.TypeOf((*trace.Recorder)(nil))

// filler sets every exported field reachable from a value non-zero:
// nested structs, pointers, lists of length 2, 0 (non-nil) and 3 in turn,
// negative durations, node ids near both ends of the int32 range,
// unsigned values past MaxInt64, exponent-form floats
// and names that need escaping. Only the trace stays nil: it is never
// encoded.
type filler struct{ values, lists int }

func (f *filler) fill(t *testing.T, v reflect.Value) {
	t.Helper()
	f.values++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() && v.Field(i).Type() != traceType {
				f.fill(t, v.Field(i))
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(t, v.Elem())
	case reflect.Slice:
		length := []int{2, 0, 3}[f.lists%3]
		f.lists++
		v.Set(reflect.MakeSlice(v.Type(), length, length))
		for i := 0; i < length; i++ {
			f.fill(t, v.Index(i))
		}
	case reflect.String:
		v.SetString(fmt.Sprintf(`name-%d "quoted" \ <é>`, f.values))
	case reflect.Int, reflect.Int64:
		x := int64(f.values) * 1_000_003
		if v.Type() == reflect.TypeOf(time.Duration(0)) && f.values%2 == 1 {
			x = -x
		}
		v.SetInt(x)
	case reflect.Int32:
		// Both ends of the range, None's sign included.
		x := int64(math.MaxInt32 - f.values)
		if f.values%2 == 1 {
			x = math.MinInt32 + int64(f.values)
		}
		v.SetInt(x)
	case reflect.Uint64:
		v.SetUint(math.MaxUint64 - uint64(f.values))
	case reflect.Float64:
		v.SetFloat(1.25e-9 * float64(f.values))
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("filler: no value for %s", v.Type())
	}
}

// checkNoZeroField fails on any exported field the filler left zero. A
// field added to Result and its parts is filled, so unless the reader
// learns it too the decode below fails.
func checkNoZeroField(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.IsExported() && f.Type != traceType {
				checkNoZeroField(t, path+"."+f.Name, v.Field(i))
			}
		}
		return
	case reflect.Pointer:
		if !v.IsNil() {
			checkNoZeroField(t, path, v.Elem())
			return
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			checkNoZeroField(t, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	}
	if v.IsZero() {
		t.Errorf("%s is zero after filler.fill", path)
	}
}

// TestDecodeResultMatchesEncodingJSON holds DecodeResult to encoding/json
// on real results of every generated family and event, on the recovery,
// flap and degraded-session results, and on a result with every field set.
func TestDecodeResultMatchesEncodingJSON(t *testing.T) {
	check := func(name string, r *Result) {
		enc, err := EncodeResult(r)
		if err != nil {
			t.Fatal(err)
		}
		checkDecodeMatchesOracle(t, name, enc)
	}
	run := func(name string, s Scenario) {
		r, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name, r)
	}

	pairs := 0
	for _, family := range topology.Families() {
		for _, event := range []string{"tdown", "tlong"} {
			s, err := FlagScenario(family, 8, event, bgp.DefaultConfig().MRAI, "standard", 3)
			if err != nil {
				continue // tlong without a default link
			}
			run(family+"/"+event, s)
			pairs++
		}
	}
	if pairs < len(topology.Families()) {
		t.Fatalf("only %d (family, event) pairs ran", pairs)
	}

	restored := CliqueTDown(5, bgp.DefaultConfig(), 2)
	restored.RestoreDelay = time.Second
	run("restore-delay", restored)
	flapped := BCliqueTLong(4, bgp.DefaultConfig(), 5)
	flapped.FlapCycles = 2
	run("flap-cycles", flapped)
	degraded, err := LoadScenarioFile("../../examples/specs/degraded-clique.json")
	if err != nil {
		t.Fatal(err)
	}
	run("degraded-clique", degraded)

	full := &Result{}
	(&filler{}).fill(t, reflect.ValueOf(full).Elem())
	checkNoZeroField(t, "Result", reflect.ValueOf(full).Elem())
	if len(full.Loops) < 2 || len(full.Loops[0].Nodes) != 0 || full.Loops[0].Nodes == nil {
		t.Fatalf("filler did not make both an empty and a long list: %+v", full.Loops)
	}
	check("every-field", full)

	// Keys in another order, whitespace and an escaped key: JSON that
	// EncodeResult never writes, accepted all the same.
	enc, err := EncodeResult(full)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(enc, &fields); err != nil {
		t.Fatal(err)
	}
	sorted, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, sorted, "", "\t"); err != nil {
		t.Fatal(err)
	}
	respelled := bytes.Replace(spaced.Bytes(), []byte(`"Topology"`), []byte(`"Top\u006flogy"`), 1)
	got, err := DecodeResult(respelled)
	if err != nil {
		t.Fatalf("DecodeResult refuses reordered, indented JSON with an escaped key: %v", err)
	}
	if !reflect.DeepEqual(got, full) {
		t.Fatalf("reordered, indented JSON with an escaped key decodes to\n%+v\nwant %+v", got, full)
	}
}

// TestDecodeResultNodeIDRange: a Loop.Nodes id is read into an int32, so
// DecodeResult refuses exactly the ids encoding/json refuses there, and
// takes the rest, None and other negatives included, at the same value.
func TestDecodeResultNodeIDRange(t *testing.T) {
	for _, id := range []int64{1 << 31, 1 << 32, math.MinInt32 - 1, math.MaxInt64} {
		data := []byte(fmt.Sprintf(`{"Loops":[{"Nodes":[1,%d]}]}`, id))
		if _, err := DecodeResult(data); err == nil {
			t.Errorf("DecodeResult accepts node %d", id)
		}
		if err := json.Unmarshal(data, &Result{}); err == nil {
			t.Errorf("encoding/json accepts node %d", id)
		}
	}
	for _, id := range []int64{-2, -1, 0, math.MaxInt32, math.MinInt32} {
		data := []byte(fmt.Sprintf(`{"Loops":[{"Nodes":[1,%d]}]}`, id))
		got, err := DecodeResult(data)
		if err != nil {
			t.Fatalf("DecodeResult refuses node %d: %v", id, err)
		}
		want := &Result{}
		if err := json.Unmarshal(data, want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || int64(got.Loops[0].Nodes[1]) != id {
			t.Errorf("node %d decodes to %+v, encoding/json to %+v", id, got.Loops, want.Loops)
		}
	}
}

// FuzzDecodeResult holds DecodeResult to its contract: whatever it
// accepts, json.Unmarshal accepts too and decodes to an equal value, and
// the value re-encodes to bytes it accepts again and decodes identically.
// A top-level null, which json.Unmarshal reads as an empty result, is
// never accepted.
func FuzzDecodeResult(f *testing.F) {
	r, err := Run(CliqueTDown(4, bgp.DefaultConfig(), 1))
	if err != nil {
		f.Fatal(err)
	}
	r.Recovery = &Recovery{RestoreAt: 3, Loops: r.Loops}
	enc, err := EncodeResult(r)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte(`{"Loops":[{"Nodes":[1,2],"Resolved":true},{"Nodes":[]}],"Phases":[{"Name":"x\n"}],"Trace":null}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeResult(data)
		if err != nil {
			return // refusing is always sound: the object is quarantined
		}
		if string(bytes.Trim(data, " \t\r\n")) == "null" {
			t.Fatal("DecodeResult accepts a top-level null")
		}
		want := &Result{}
		if err := json.Unmarshal(data, want); err != nil {
			t.Fatalf("DecodeResult accepts what encoding/json refuses (%v)", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeResult and json.Unmarshal disagree:\n got %+v\nwant %+v", got, want)
		}
		enc, err := EncodeResult(got)
		if err != nil {
			t.Fatal(err)
		}
		checkDecodeMatchesOracle(t, "re-encoded", enc)
	})
}
