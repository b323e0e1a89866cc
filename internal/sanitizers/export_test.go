package sanitizers

// CheckGolden lets the external test package compare its dumps with the
// testdata goldens (and rewrite them under -update) like the package's
// own golden tests.
var CheckGolden = checkGolden
