package detsort

import (
	"reflect"
	"testing"
)

func TestKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	if got := Keys(m); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("Keys = %v", got)
	}
	if got := Keys(map[uint64]struct{}{9: {}, 1: {}, 5: {}}); !reflect.DeepEqual(got, []uint64{1, 5, 9}) {
		t.Fatalf("Keys = %v", got)
	}
	if got := Keys(map[int]int(nil)); len(got) != 0 {
		t.Fatalf("Keys(nil) = %v", got)
	}
}
