package clusterfds_test

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"clusterfds/internal/baseline"
	"clusterfds/internal/cluster"
	"clusterfds/internal/daemon"
	"clusterfds/internal/fds"
	"clusterfds/internal/intercluster"
	"clusterfds/internal/mobility"
	"clusterfds/internal/montecarlo"
	"clusterfds/internal/par"
	"clusterfds/internal/radio"
	"clusterfds/internal/scenario"
	"clusterfds/internal/sleep"
	"clusterfds/internal/transport"
)

// settableTypes are the configuration structs whose exported fields are the
// tree's settable values.
var settableTypes = []any{
	fds.Config{}, intercluster.Config{}, cluster.Config{}, scenario.Config{},
	daemon.Config{}, par.Config{}, radio.Params{}, transport.EnergyParams{},
	baseline.Params{}, sleep.Config{}, mobility.Config{},
	scenario.Matrix{}, montecarlo.ClusterExperiment{},
}

// settableRow is one row of DESIGN.md §6's settable-values table: the value
// as `pkg.Type.Field` in the first column, and a non-empty second column
// naming who sets it.
var settableRow = regexp.MustCompile("(?m)^\\| `([a-z]+\\.[A-Za-z]+\\.[A-Za-z]+)` \\| *([^|]*?) *\\|")

// TestSettableValuesDocumented keeps DESIGN.md §6's rule, "what stays
// settable is what some caller sets", checkable: every exported field of the
// configuration structs (promoted fields included) has a row in §6's table
// naming who sets it, and every row names a field that exists. A new knob
// needs a documented caller; a deleted one, or a deleted struct, takes its
// rows with it.
func TestSettableValuesDocumented(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	s := string(doc)
	start := strings.Index(s, "\n## 6. ")
	end := strings.Index(s, "\n## 7. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md: sections 6 and 7 not found")
	}
	rows := map[string]string{}
	for _, m := range settableRow.FindAllStringSubmatch(s[start:end], -1) {
		rows[m[1]] = m[2]
	}

	fields := map[string]bool{}
	types := map[string]bool{}
	for _, v := range settableTypes {
		typ := reflect.TypeOf(v)
		name := typ.String() // "fds.Config"
		types[name] = true
		for _, f := range reflect.VisibleFields(typ) {
			if !f.IsExported() || (f.Anonymous && f.Type.Kind() == reflect.Struct) {
				continue // an embedded struct is documented by its promoted fields
			}
			key := name + "." + f.Name
			fields[key] = true
			if setBy, ok := rows[key]; !ok {
				t.Errorf("DESIGN.md §6 has no row for `%s`", key)
			} else if setBy == "" {
				t.Errorf("DESIGN.md §6: the row for `%s` names no caller", key)
			}
		}
	}
	for key := range rows {
		typ := key[:strings.LastIndex(key, ".")]
		switch {
		case !types[typ]:
			t.Errorf("DESIGN.md §6 documents `%s`, but `%s` is not in settableTypes", key, typ)
		case !fields[key]:
			t.Errorf("DESIGN.md §6 documents `%s`, which is not a field", key)
		}
	}
	t.Logf("%d settable values in %d structs", len(fields), len(settableTypes))
}
