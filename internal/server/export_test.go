package server

// Test helpers shared with the external job-surface tests
// (jobsurface_test.go), which run against both a server and a fabric
// coordinator and so live outside this package.

var WaitNoGoroutineLeaks = waitNoGoroutineLeaks

// legacyAPIVersion is the pre-envelope wire format the server once
// served; it is now an unknown version like any other.
const legacyAPIVersion = "2024-01"
