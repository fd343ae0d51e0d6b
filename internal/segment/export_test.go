package segment

// Exports for the external fuzz test (manifest_fuzz_test.go), which
// imports internal/core and so cannot live in this package.
var (
	ParseManifest = parseManifest
	WriteManifest = writeManifest
)
