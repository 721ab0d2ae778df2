package cluster

import (
	"reflect"
	"testing"

	"tebis/internal/lsm"
	"tebis/internal/replica"
	"tebis/internal/server"
)

// TestOptionCountsOnlyGoDown pins the field count of every configuration
// struct a deployment fills in. Each field is a knob that a named
// experiment, test or binary must read, so the counts may only fall: a PR
// that deletes a field lowers its bound here, and one that adds a field
// fails.
func TestOptionCountsOnlyGoDown(t *testing.T) {
	for _, c := range []struct {
		typ reflect.Type
		max int
	}{
		{reflect.TypeFor[Config](), 21},
		{reflect.TypeFor[server.Config](), 23},
		{reflect.TypeFor[replica.PrimaryConfig](), 17},
		{reflect.TypeFor[replica.BackupConfig](), 10},
		{reflect.TypeFor[lsm.Options](), 13},
	} {
		if n := c.typ.NumField(); n > c.max {
			t.Errorf("%v has %d fields, more than its %d", c.typ, n, c.max)
		} else if n < c.max {
			t.Logf("%v has %d fields: lower its bound from %d", c.typ, n, c.max)
		}
	}
}
