package durable

// ScheduleStream exposes scheduleStream to the external test that compares
// it with the des stream it mirrors (durable itself cannot import des).
var ScheduleStream = scheduleStream
