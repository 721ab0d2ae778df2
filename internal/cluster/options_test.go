package cluster

import (
	"reflect"
	"testing"

	"tebis/internal/lsm"
	"tebis/internal/master"
	"tebis/internal/replica"
	"tebis/internal/server"
)

// TestOptionCountsOnlyGoDown pins the field count of every configuration
// struct a deployment fills in, and the method count of master.Host, the
// command surface the master drives region servers through. Each field
// is a knob that a named experiment, test or binary must read, and each
// method a step of bootstrap, failover or migration, so the counts may
// only fall: a PR that deletes one lowers its bound here, and one that
// adds one fails.
func TestOptionCountsOnlyGoDown(t *testing.T) {
	for _, c := range []struct {
		typ reflect.Type
		max int
	}{
		{reflect.TypeFor[master.Host](), 13},
		{reflect.TypeFor[Config](), 21},
		{reflect.TypeFor[server.Config](), 22},
		{reflect.TypeFor[replica.PrimaryConfig](), 16},
		{reflect.TypeFor[replica.BackupConfig](), 10},
		{reflect.TypeFor[lsm.Options](), 11},
	} {
		n, what := 0, "fields"
		if c.typ.Kind() == reflect.Interface {
			n, what = c.typ.NumMethod(), "methods"
		} else {
			n = c.typ.NumField()
		}
		if n > c.max {
			t.Errorf("%v has %d %s, more than its %d", c.typ, n, what, c.max)
		} else if n < c.max {
			t.Logf("%v has %d %s: lower its bound from %d", c.typ, n, what, c.max)
		}
	}
}
