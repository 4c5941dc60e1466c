package sim

// Stamp exists only in the test variant of the package, so the external
// test below type-checks only if the driver resolves its import of sim to
// that variant.
var Stamp = stamp
