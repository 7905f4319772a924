package trace

import (
	"bytes"
	"encoding/csv"
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

func sampleLog() *Log {
	l := NewLog()
	l.SetMeta("concurrency", "4")
	l.SetMeta("flows", "8")
	l.Add(Transfer{ClientID: 0, Flows: 8, Bytes: 5e8, Start: 0, End: 0.2})
	l.Add(Transfer{ClientID: 1, Flows: 8, Bytes: 5e8, Start: 1, End: 2.5, Retransmits: 12})
	l.Add(Transfer{ClientID: 2, Flows: 8, Bytes: 5e8, Start: 2, End: 7.0})
	return l
}

func TestTransferDerived(t *testing.T) {
	tr := Transfer{Bytes: 1e9, Start: 1, End: 3}
	if d := tr.Duration(); d != 2 {
		t.Errorf("Duration = %v", d)
	}
}

func TestLogAggregates(t *testing.T) {
	l := sampleLog()
	max, err := l.MaxDuration()
	if err != nil || max != 5 {
		t.Errorf("MaxDuration = %v, %v", max, err)
	}
	s := l.Durations()
	if s.Len() != 3 {
		t.Errorf("Durations len = %d", s.Len())
	}

	var empty Log
	if _, err := empty.MaxDuration(); err == nil {
		t.Error("empty MaxDuration should fail")
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleLog().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := `client_id,flows,bytes,start_s,end_s,retransmits
0,8,5e+08,0,0.2,0
1,8,5e+08,1,2.5,12
2,8,5e+08,2,7,0
`
	if buf.String() != want {
		t.Fatalf("CSV =\n%s\nwant\n%s", buf.String(), want)
	}
}

func TestSetMetaOnZeroValue(t *testing.T) {
	var l Log
	l.SetMeta("k", "v") // must not panic on nil map
	if l.Meta["k"] != "v" {
		t.Fatal("SetMeta on zero value failed")
	}
}

// Property: the CSV is lossless — every field of a finite transfer
// parses back to the value written.
func TestQuickCSVRoundTrip(t *testing.T) {
	f := func(id uint8, flows uint8, payload, start, dur float64) bool {
		if math.IsNaN(payload) || math.IsInf(payload, 0) ||
			math.IsNaN(start) || math.IsInf(start, 0) ||
			math.IsNaN(dur) || math.IsInf(dur, 0) {
			return true
		}
		l := NewLog()
		tr := Transfer{ClientID: int(id), Flows: int(flows), Bytes: payload, Start: start, End: start + dur}
		l.Add(tr)
		var buf bytes.Buffer
		if err := l.WriteCSV(&buf); err != nil {
			return false
		}
		recs, err := csv.NewReader(&buf).ReadAll()
		if err != nil || len(recs) != 2 {
			return false
		}
		row := recs[1]
		b, errB := strconv.ParseFloat(row[2], 64)
		s, errS := strconv.ParseFloat(row[3], 64)
		e, errE := strconv.ParseFloat(row[4], 64)
		return errB == nil && errS == nil && errE == nil &&
			row[0] == strconv.Itoa(tr.ClientID) && row[1] == strconv.Itoa(tr.Flows) &&
			b == tr.Bytes && s == tr.Start && e == tr.End && row[5] == "0"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
