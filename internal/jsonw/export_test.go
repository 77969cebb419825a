package jsonw

// FieldFallbacks returns how many Field calls have fallen back to Key.
func FieldFallbacks() int64 { return fieldFallbacks.Load() }
