package core

// LockTable renders the lock table for the external tests of this
// package: one line per held resource, "name: owner/mode ...".
func (db *DB) LockTable() string { return db.lm.String() }
