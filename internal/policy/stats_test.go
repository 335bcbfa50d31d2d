package policy

import (
	"reflect"
	"regexp"
	"testing"
)

// TestMoverStatsTable pins the one-table contract: every MoverStats
// field has exactly one moverMetrics entry, names are unique and
// mover/-shaped, and Add sums every field. A counter added to the
// struct without a table entry (or vice versa) fails here.
func TestMoverStatsTable(t *testing.T) {
	typ := reflect.TypeOf(MoverStats{})
	if typ.NumField() != len(moverMetrics) {
		t.Fatalf("MoverStats has %d fields, moverMetrics has %d entries", typ.NumField(), len(moverMetrics))
	}
	var s MoverStats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Uint64 {
			t.Errorf("MoverStats.%s is %s, want uint64", f.Name, f.Type)
			continue
		}
		addr := v.Field(i).Addr().Interface().(*uint64)
		n := 0
		for _, m := range moverMetrics {
			if m.field(&s) == addr {
				n++
			}
		}
		if n != 1 {
			t.Errorf("MoverStats.%s has %d moverMetrics entries, want 1", f.Name, n)
		}
	}

	shape := regexp.MustCompile(`^mover/[a-z0-9_]+$`)
	seen := map[string]bool{}
	for _, m := range moverMetrics {
		name := moverMetricName(m)
		if !shape.MatchString(name) || name != "mover/"+m.name {
			t.Errorf("metric %q is not mover/<metric>-shaped", name)
		}
		if seen[name] {
			t.Errorf("metric %q listed twice", name)
		}
		seen[name] = true
	}

	var a, b MoverStats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < typ.NumField(); i++ {
		av.Field(i).SetUint(uint64(i + 1))
		bv.Field(i).SetUint(uint64(100 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < typ.NumField(); i++ {
		if got, want := av.Field(i).Uint(), uint64(101*(i+1)); got != want {
			t.Errorf("Add: MoverStats.%s = %d, want %d", typ.Field(i).Name, got, want)
		}
	}
}

// TestAttributionCountersOmitOutcomes checks the fault-attribution
// rows: every counter except the promotion and demotion totals, in
// table order.
func TestAttributionCountersOmitOutcomes(t *testing.T) {
	s := MoverStats{Promotions: 7, Demotions: 8, Failed: 3, RejectedDemotions: 2}
	rows := s.AttributionCounters()
	if len(rows) != len(moverMetrics)-2 {
		t.Fatalf("%d attribution rows, want %d", len(rows), len(moverMetrics)-2)
	}
	if rows[0].Name != "mover/failed" || rows[0].Value != 3 {
		t.Errorf("first row = %+v, want mover/failed=3", rows[0])
	}
	if last := rows[len(rows)-1]; last.Name != "mover/rejected_demotions" || last.Value != 2 {
		t.Errorf("last row = %+v, want mover/rejected_demotions=2", last)
	}
	for _, r := range rows {
		if r.Name == "mover/promotions" || r.Name == "mover/demotions" {
			t.Errorf("attribution lists outcome counter %s", r.Name)
		}
	}
}
