package backend

// RightsToPerm lets the external tests check the rights-to-permission
// mapping every filter build applies.
var RightsToPerm = rightsToPerm
