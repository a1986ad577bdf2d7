package ndp

import (
	"reflect"
	"testing"

	"github.com/aeolus-transport/aeolus/internal/core"
	"github.com/aeolus-transport/aeolus/internal/kv"
)

// TestOptionTable checks the -opt table against the options it binds: every
// option of the NDP+Aeolus defaults renders and sets back unchanged, and a
// distinct value per key lands in the field the key names.
func TestOptionTable(t *testing.T) {
	want := DefaultOptions()
	want.Aeolus = core.DefaultOptions()
	o := want
	for _, f := range options(&o) {
		if err := f.Set(f.String()); err != nil {
			t.Errorf("-opt %s=%s: %v", f.Key, f.String(), err)
		}
	}
	if !reflect.DeepEqual(o, want) {
		t.Errorf("render and set back changed the options:\n%+v\nwant\n%+v", o, want)
	}

	var got Options
	words := []string{"trimpkts=3", "spray=true", "probetimeout=2500ps"}
	if err := kv.Parse(words, options(&got)); err != nil {
		t.Fatal(err)
	}
	bound := Options{TrimThresholdPkts: 3, Spray: true, Aeolus: core.Options{ProbeTimeout: 2500}}
	if !reflect.DeepEqual(got, bound) {
		t.Errorf("%q set %+v, want %+v", words, got, bound)
	}
}
