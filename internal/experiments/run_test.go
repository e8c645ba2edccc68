package experiments

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestAddIntoSumsEveryField fills every field of a core.Metrics (each
// counter 1, each map one key at 1), sums it twice into fresh fleet
// metrics and checks that every field doubled. A counter added to
// core.Metrics and left out of addInto or newMetrics fails here.
func TestAddIntoSumsEveryField(t *testing.T) {
	var m core.Metrics
	v := reflect.ValueOf(&m).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int64:
			f.SetInt(1)
		case reflect.Map:
			f.Set(reflect.MakeMap(f.Type()))
			f.SetMapIndex(reflect.Zero(f.Type().Key()), reflect.ValueOf(int64(1)).Convert(f.Type().Elem()))
		default:
			t.Fatalf("core.Metrics.%s has kind %s; teach addInto and this test to sum it",
				v.Type().Field(i).Name, f.Kind())
		}
	}

	dst := newMetrics()
	addInto(&dst, m)
	addInto(&dst, m)

	d := reflect.ValueOf(dst)
	for i := 0; i < d.NumField(); i++ {
		name, f := d.Type().Field(i).Name, d.Field(i)
		switch f.Kind() {
		case reflect.Int64:
			if f.Int() != 2 {
				t.Errorf("%s = %d after two sums of 1, want 2", name, f.Int())
			}
		case reflect.Map:
			key := reflect.Zero(f.Type().Key())
			if got := f.MapIndex(key); !got.IsValid() || got.Int() != 2 || f.Len() != 1 {
				t.Errorf("%s = %v after two sums of {%v: 1}, want {%v: 2}", name, f, key, key)
			}
		}
	}
}
