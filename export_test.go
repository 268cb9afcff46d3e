package fcatch

// ResultTriggerer exposes the triggerer Trigger, TriggerCompounds and
// Reproduce build for a result.
var ResultTriggerer = triggerer
