package core

// CheckInvariants exposes the structural invariant checker to tests.
func (t *Table[K]) CheckInvariants() error { return t.checkInvariants() }

// CheckMembershipInvariants exposes the intrusive pair-membership
// checker to tests and fuzz targets, for an analyzer fed unpartitioned.
func (a *Analyzer) CheckMembershipInvariants() error { return a.checkMembershipInvariants(0, 1) }
