package metrics

// Fixture exposes the hand fixture to the external test package.
var Fixture = fixture
