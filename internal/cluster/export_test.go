package cluster

import (
	"reflect"

	"croesus/internal/txn"
)

// Test-only views of the edges' transaction managers.

// indexOf reports what m's dependency index holds: last-writer keys, live
// (non-terminal) instances, and terminal instances waiting for a sweep. It
// reads the manager's fields without its lock, so call it only where no
// transaction can run: on the sim clock from a participant, or after Drain.
func indexOf(m *txn.Manager) (lastWriter, live, waiting int) {
	v := reflect.ValueOf(m).Elem()
	return v.FieldByName("lastWriter").Len(), v.FieldByName("live").Len(), v.FieldByName("waiting").Len()
}
