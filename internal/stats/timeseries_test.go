package stats

import (
	"strings"
	"testing"
)

func TestTimeSeriesAppendAndAccessors(t *testing.T) {
	ts := &TimeSeries{Name: "x"}
	ts.Append(0, 1)
	ts.Append(5, 2)
	ts.Append(5, 3) // equal timestamps allowed
	if ts.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ts.Len())
	}
	if vs := ts.Values(); vs[0] != 1 || vs[1] != 2 || vs[2] != 3 {
		t.Fatalf("Values = %v", vs)
	}
	if tsx := ts.Times(); tsx[0] != 0 || tsx[2] != 5 {
		t.Fatalf("Times = %v", tsx)
	}
	if ts.Last().V != 3 {
		t.Fatalf("Last = %+v", ts.Last())
	}
}

func TestTimeSeriesBackwardsPanics(t *testing.T) {
	ts := &TimeSeries{Name: "x"}
	ts.Append(10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards append did not panic")
		}
	}()
	ts.Append(9, 2)
}

func TestTimeSeriesAtStepInterpolation(t *testing.T) {
	ts := &TimeSeries{Name: "bw"}
	ts.Append(0, 100)
	ts.Append(10, 200)
	ts.Append(20, 300)
	cases := []struct{ at, want float64 }{
		{-5, 100}, {0, 100}, {5, 100}, {10, 200}, {15, 200}, {20, 300}, {99, 300},
	}
	for _, c := range cases {
		if got := ts.At(c.at); got != c.want {
			t.Fatalf("At(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestTimeSeriesAtEmpty(t *testing.T) {
	ts := &TimeSeries{}
	if ts.At(5) != 0 {
		t.Fatal("At on empty series should be 0")
	}
	if ts.Last() != (Point{}) {
		t.Fatal("Last on empty series should be zero Point")
	}
}

func TestSub(t *testing.T) {
	a := &TimeSeries{Name: "a"}
	a.Append(0, 10)
	a.Append(10, 30)
	b := &TimeSeries{Name: "b"}
	b.Append(0, 4)
	b.Append(10, 10)
	d := Sub(a, b)
	if d.Points[0].V != 6 || d.Points[1].V != 20 {
		t.Fatalf("Sub = %v", d.Points)
	}
	if d.Name != "a-b" {
		t.Fatalf("Sub name = %q", d.Name)
	}
}

func TestCSVOutput(t *testing.T) {
	ts := &TimeSeries{Name: "oo"}
	ts.Append(0, 1.5)
	ts.Append(120, 2)
	out := ts.CSV()
	if !strings.HasPrefix(out, "t,oo\n") {
		t.Fatalf("CSV header wrong: %q", out)
	}
	if !strings.Contains(out, "120.000,2") {
		t.Fatalf("CSV body missing row: %q", out)
	}
}
